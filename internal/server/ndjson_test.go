package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"perftrack/internal/core"
)

// streamResult is a result of two contexts that share a resource, so
// its row's resources are merged, sorted and deduplicated.
var streamResult = &core.PerformanceResult{
	Execution: "exec-a", Metric: "time", Value: 12.5, Units: "seconds", Tool: "tool",
	Contexts: []core.Context{
		{Resources: []core.ResourceName{"/SG/SM/batch/n0/p0", "/app"}},
		{Resources: []core.ResourceName{"/app", "/build/m.c/f<1>"}},
	},
}

// raceDetector is set when the tests run under the race detector.
var raceDetector bool

// TestStreamLinesAllocateNothing emits one more results-stream row,
// after the first has sized the reused buffers: it allocates nothing.
func TestStreamLinesAllocateNothing(t *testing.T) {
	if raceDetector {
		// sync.Pool drops items at random under the race detector, so
		// encoding/json allocates the encode state it pools.
		t.Skip("allocations are not counted under the race detector")
	}
	var out bytes.Buffer
	enc := newNDJSON(&out)
	defer enc.Release()
	rs := &resultStream{enc: enc}
	if n := testing.AllocsPerRun(100, func() {
		out.Reset()
		if err := rs.sendRow(streamResult); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a results-stream row allocates %v times", n)
	}
}

// TestStreamLinesMatchBoxedLines holds the reused-line results stream to
// the bytes json.Encoder writes for the line values it stands for, its
// resources those of PerformanceResult.AllResources.
func TestStreamLinesMatchBoxedLines(t *testing.T) {
	var got, want bytes.Buffer
	enc := newNDJSON(&got)
	defer enc.Release()
	ref := json.NewEncoder(&want)

	rs := &resultStream{enc: enc}
	for range 2 { // the second row reuses the first one's storage
		if err := rs.sendRow(streamResult); err != nil {
			t.Fatal(err)
		}
		row := ResultRow{Execution: "exec-a", Metric: "time", Value: 12.5, Units: "seconds", Tool: "tool"}
		for _, r := range streamResult.AllResources() {
			row.Resources = append(row.Resources, string(r))
		}
		ref.Encode(ResultStreamLine{APIVersion: APIVersion, Row: &row})
	}
	if err := rs.sendRow(&core.PerformanceResult{Metric: "m"}); err != nil {
		t.Fatal(err)
	}
	ref.Encode(ResultStreamLine{APIVersion: APIVersion, Row: &ResultRow{Metric: "m"}})
	if got.String() != want.String() {
		t.Fatalf("stream lines\n%s\nwant\n%s", got.String(), want.String())
	}
}
