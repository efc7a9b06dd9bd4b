package diagnose

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"perftrack/internal/datastore"
	"perftrack/internal/query"
)

// Request is the wire form of a diagnosis spec — the body of
// POST /v1/diagnose. It mirrors Spec.
//
// A and B carry each side as a unified query.Selection, the shape shared
// with /v1/query and /v1/results. The older flat spellings (exec_a,
// execs_a, families_a, ...) keep decoding and merge with the selections,
// per the v1 append-only wire contract.
type Request struct {
	A           *query.Selection `json:"a,omitempty"`
	B           *query.Selection `json:"b,omitempty"`
	ExecA       string           `json:"exec_a,omitempty"`
	ExecB       string           `json:"exec_b,omitempty"`
	ExecsA      []string         `json:"execs_a,omitempty"`
	ExecsB      []string         `json:"execs_b,omitempty"`
	FamiliesA   []string         `json:"families_a,omitempty"`
	FamiliesB   []string         `json:"families_b,omitempty"`
	Metric      string           `json:"metric,omitempty"`
	Top         int              `json:"top,omitempty"`
	MinCoverage float64          `json:"min_coverage,omitempty"`
	Explain     bool             `json:"explain,omitempty"`
}

// Spec validates the request and converts it to a runnable Spec, merging
// the unified selections into the flat side fields.
func (r Request) Spec() (Spec, error) {
	sp := Spec{
		ExecA: r.ExecA, ExecB: r.ExecB,
		ExecsA:    append([]string(nil), r.ExecsA...),
		ExecsB:    append([]string(nil), r.ExecsB...),
		FamiliesA: append([]string(nil), r.FamiliesA...),
		FamiliesB: append([]string(nil), r.FamiliesB...),
		Metric:    r.Metric, Top: r.Top,
		MinCoverage: r.MinCoverage, Explain: r.Explain,
	}
	sp.ExecsA = append(sp.ExecsA, r.A.ExecutionList()...)
	sp.ExecsB = append(sp.ExecsB, r.B.ExecutionList()...)
	if r.A != nil {
		sp.FamiliesA = append(sp.FamiliesA, r.A.Families...)
	}
	if r.B != nil {
		sp.FamiliesB = append(sp.FamiliesB, r.B.Families...)
	}
	if err := sp.Validate(); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

// ParseRequest strictly decodes a JSON diagnose request: unknown fields,
// trailing garbage, and invalid side selections are all rejected with
// ErrBadSpec, per the v1 API's decoding contract.
func ParseRequest(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return Spec{}, fmt.Errorf("diagnose: bad request: %v: %w", err, datastore.ErrBadSpec)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Spec{}, fmt.Errorf("diagnose: trailing data after request: %w", datastore.ErrBadSpec)
	}
	return req.Spec()
}
