package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestRunMatchesGolden pins the tour's output byte for byte to
// testdata/output.golden.
func TestRunMatchesGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "output.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("output differs from testdata/output.golden:\n%s", got.Bytes())
	}
}
