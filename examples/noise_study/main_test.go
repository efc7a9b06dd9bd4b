package main

import (
	"bytes"
	"testing"
)

// TestRunIsDeterministic runs the study twice: the two reports must be
// the same bytes.
func TestRunIsDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := run(&first); err != nil {
		t.Fatal(err)
	}
	if err := run(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two runs differ:\n--- first ---\n%s--- second ---\n%s", first.Bytes(), second.Bytes())
	}
	if !bytes.Contains(first.Bytes(), []byte("called from")) {
		t.Fatalf("report lacks the caller breakdown:\n%s", first.Bytes())
	}
}
