package datastore

import (
	"context"
	"testing"

	"perftrack/internal/core"
)

func TestExecutionDetail(t *testing.T) {
	s := seedStudy(t)
	s.AddResource("/irs-frost", "execution", "irs-frost")
	s.SetResourceAttribute("/irs-frost", "nprocs", "32")

	d, err := s.ExecutionDetail("irs-frost")
	if err != nil {
		t.Fatal(err)
	}
	if d.Application != "irs" {
		t.Errorf("app = %q", d.Application)
	}
	if d.Results != 3 {
		t.Errorf("results = %d", d.Results)
	}
	if len(d.Metrics) != 3 || d.Metrics[0] != "cpu time" {
		t.Errorf("metrics = %v", d.Metrics)
	}
	if len(d.Tools) != 1 || d.Tools[0] != "test" {
		t.Errorf("tools = %v", d.Tools)
	}
	if d.Attributes["nprocs"] != "32" {
		t.Errorf("attributes = %v", d.Attributes)
	}
	if d.Resources != 1 {
		t.Errorf("exec-scoped resources = %d", d.Resources)
	}
	if _, err := s.ExecutionDetail("nosuch"); err == nil {
		t.Error("unknown execution accepted")
	}
}

func TestDeleteExecutionCascades(t *testing.T) {
	s := seedStudy(t)
	// Give irs-frost execution-scoped resources with attributes,
	// constraints, and focus membership.
	s.AddResource("/irs-frost", "execution", "irs-frost")
	s.AddResource("/irs-frost/p0", "execution/process", "irs-frost")
	s.SetResourceAttribute("/irs-frost/p0", "rank", "0")
	s.AddResourceConstraint("/irs-frost/p0", "/GF/Frost/batch/n1/p0")
	addResult(t, s, "irs-frost", "proc wall", 1.5, "/irs", "/irs-frost/p0")

	before := s.Stats()
	if err := s.DeleteExecution("irs-frost"); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()

	// Execution gone; its results gone; other execution untouched.
	if after.Executions != before.Executions-1 {
		t.Errorf("executions %d -> %d", before.Executions, after.Executions)
	}
	if after.Results != 1 { // only irs-mcr's wall time remains
		t.Errorf("results = %d", after.Results)
	}
	if s.HasResource("/irs-frost/p0") || s.HasResource("/irs-frost") {
		t.Error("execution-scoped resources survive")
	}
	// Shared resources survive.
	if !s.HasResource("/irs") || !s.HasResource("/GF/Frost/batch/n1/p0") {
		t.Error("shared resources deleted")
	}
	// Remaining execution still queryable.
	fam, _ := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GM/MCR", Include: core.IncludeDescendants})
	n, err := s.CountFamilyMatchesCtx(context.Background(), fam)
	if err != nil || n != 1 {
		t.Errorf("surviving matches = %d, %v", n, err)
	}
	// Deleting again fails cleanly.
	if err := s.DeleteExecution("irs-frost"); err == nil {
		t.Error("double delete accepted")
	}
}

func TestDeleteExecutionRemovesOrphanedFoci(t *testing.T) {
	s := newStore(t)
	s.AddResource("/app", "application", "")
	s.AddExecution("e1", "app")
	s.AddExecution("e2", "app")
	// e1 and e2 share a context {app}; deleting e1 must keep the focus.
	addResult(t, s, "e1", "m", 1, "/app")
	addResult(t, s, "e2", "m", 2, "/app")
	fTab, _ := s.Engine().Table("focus")
	if fTab.Len() != 1 {
		t.Fatalf("foci = %d", fTab.Len())
	}
	if err := s.DeleteExecution("e1"); err != nil {
		t.Fatal(err)
	}
	if fTab.Len() != 1 {
		t.Errorf("shared focus deleted: foci = %d", fTab.Len())
	}
	// Now delete e2: the focus becomes orphaned and must go.
	if err := s.DeleteExecution("e2"); err != nil {
		t.Fatal(err)
	}
	if fTab.Len() != 0 {
		t.Errorf("orphaned focus survives: foci = %d", fTab.Len())
	}
	fhrTab, _ := s.Engine().Table("focus_has_resource")
	if fhrTab.Len() != 0 {
		t.Errorf("focus links survive: %d", fhrTab.Len())
	}
}

func TestDeleteExecutionWithHistogram(t *testing.T) {
	s := newStore(t)
	s.AddResource("/app", "application", "")
	s.AddExecution("e1", "app")
	if _, err := s.AddHistogramResult(&core.PerformanceResult{
		Execution: "e1", Metric: "m", Tool: "t", Units: "u",
		Contexts: []core.Context{core.NewContext("/app")},
	}, 0.2, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteExecution("e1"); err != nil {
		t.Fatal(err)
	}
	if s.HistogramCount() != 0 {
		t.Errorf("histograms survive: %d", s.HistogramCount())
	}
}

func TestDeleteExecutionReloadable(t *testing.T) {
	// After deleting, the same execution can be reloaded cleanly — the
	// workflow for replacing bad data.
	s := newStore(t)
	s.AddResource("/app", "application", "")
	s.AddExecution("e1", "app")
	s.AddResource("/e1", "execution", "e1")
	addResult(t, s, "e1", "m", 1, "/app", "/e1")
	if err := s.DeleteExecution("e1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("e1", "app"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddResource("/e1", "execution", "e1"); err != nil {
		t.Fatal(err)
	}
	addResult(t, s, "e1", "m", 2, "/app", "/e1")
	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil || len(ids) != 1 {
		t.Fatalf("ids = %v, %v", ids, err)
	}
	pr, _ := s.ResultByID(ids[0])
	if pr.Value != 2 {
		t.Errorf("reloaded value = %v", pr.Value)
	}
}
