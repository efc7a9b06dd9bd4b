package datastore

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"perftrack/internal/core"
)

func TestAttributeKeys(t *testing.T) {
	s := seedAttrStudy(t)
	keys, err := s.AttributeKeys("")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0].Name != "clock MHz" || keys[1].Name != "vendor" {
		t.Fatalf("keys = %+v", keys)
	}
	clock := keys[0]
	if clock.Resources != 3 || clock.Distinct != 3 || !clock.Numeric {
		t.Errorf("clock MHz stats = %+v", clock)
	}
	if clock.Min != 700 || clock.Max != 2400 {
		t.Errorf("clock MHz range = [%v, %v], want [700, 2400]", clock.Min, clock.Max)
	}
	if !reflect.DeepEqual(clock.Values, []string{"1000", "2400", "700"}) {
		t.Errorf("clock MHz values = %v", clock.Values)
	}
	vendor := keys[1]
	if vendor.Numeric || vendor.Resources != 1 || vendor.Min != 0 || vendor.Max != 0 {
		t.Errorf("vendor stats = %+v", vendor)
	}

	// Prefix filtering.
	keys, err = s.AttributeKeys("ven")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0].Name != "vendor" {
		t.Errorf("prefix ven = %+v", keys)
	}
	keys, err = s.AttributeKeys("nope")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 0 {
		t.Errorf("prefix nope = %+v", keys)
	}
}

func TestAttributeKeysLastWriteWins(t *testing.T) {
	s := seedAttrStudy(t)
	// Overwriting an attribute must not inflate Resources or leave the
	// stale value in the domain.
	if err := s.SetResourceAttribute("/GM/MCR/batch/n0/p0", "clock MHz", "2400"); err != nil {
		t.Fatal(err)
	}
	keys, err := s.AttributeKeys("clock")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("keys = %+v", keys)
	}
	clock := keys[0]
	if clock.Resources != 3 || clock.Distinct != 2 {
		t.Errorf("after overwrite = %+v", clock)
	}
	if clock.Min != 1000 || clock.Max != 2400 {
		t.Errorf("range after overwrite = [%v, %v]", clock.Min, clock.Max)
	}
}

func TestAttributeKeysDomainCap(t *testing.T) {
	s := newStore(t)
	for i := 0; i < MaxAttrDomain+8; i++ {
		name := core.ResourceName("/app" + string(rune('a'+i/26)) + string(rune('a'+i%26)))
		if _, err := s.AddResource(name, "application", ""); err != nil {
			t.Fatal(err)
		}
		if err := s.SetResourceAttribute(name, "serial", name.BaseName()); err != nil {
			t.Fatal(err)
		}
	}
	keys, err := s.AttributeKeys("serial")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 {
		t.Fatalf("keys = %+v", keys)
	}
	got := keys[0]
	if got.Distinct != MaxAttrDomain+8 {
		t.Errorf("Distinct = %d, want exact count %d", got.Distinct, MaxAttrDomain+8)
	}
	if len(got.Values) != MaxAttrDomain {
		t.Errorf("Values sample = %d entries, want cap %d", len(got.Values), MaxAttrDomain)
	}
}

func TestAttributeValues(t *testing.T) {
	s := newStore(t)
	id1, err := s.AddResource("/a", "application", "")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.AddResource("/b", "application", "")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct {
		res  core.ResourceName
		attr string
		val  string
	}{
		{"/a", "compiler", "-O0"},
		{"/b", "compiler", "-O2"},
		{"/a", "compiler", "-O3"}, // overwrite: last write wins
		{"/a", "vendor", "IBM"},
	} {
		if err := s.SetResourceAttribute(set.res, set.attr, set.val); err != nil {
			t.Fatal(err)
		}
	}
	vals, err := s.AttributeValues("compiler")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]string{id1: "-O3", id2: "-O2"}
	if !reflect.DeepEqual(vals, want) {
		t.Errorf("AttributeValues = %v, want %v", vals, want)
	}
	vals, err = s.AttributeValues("no such attr")
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 0 {
		t.Errorf("unknown attr values = %v", vals)
	}
}

func TestExecutionResourceIDs(t *testing.T) {
	s := newStore(t)
	appID, err := s.AddResource("/irs", "application", "")
	if err != nil {
		t.Fatal(err)
	}
	procID, err := s.AddResource("/GM/MCR/batch/n0/p0", "grid/machine/partition/node/processor", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddExecution("e1", "irs"); err != nil {
		t.Fatal(err)
	}
	execResID, err := s.AddResource("/e1", "execution", "e1")
	if err != nil {
		t.Fatal(err)
	}
	procOtherID, err := s.AddResource("/GF/Frost/batch/n9/p0", "grid/machine/partition/node/processor", "")
	if err != nil {
		t.Fatal(err)
	}
	// A process scoped to e1, constrained to the processor it ran on.
	procResID, err := s.AddResource("/e1/pid100", "execution/process", "e1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddResourceConstraint("/e1/pid100", "/GM/MCR/batch/n0/p0"); err != nil {
		t.Fatal(err)
	}
	addResult(t, s, "e1", "wall time", 42, "/irs", "/e1")

	ids, err := s.ExecutionResourceIDs(context.Background(), "e1")
	if err != nil {
		t.Fatal(err)
	}
	idSet := make(map[int64]bool, len(ids))
	for _, id := range ids {
		idSet[id] = true
	}
	// Context resources, execution-scoped resources, the constraint
	// partner, and the partner's ancestors must all be present.
	for _, want := range []struct {
		name string
		id   int64
	}{
		{"context /irs", appID},
		{"execution resource /e1", execResID},
		{"scoped process", procResID},
		{"constraint partner", procID},
	} {
		if !idSet[want.id] {
			t.Errorf("footprint missing %s (id %d); got %v", want.name, want.id, ids)
		}
	}
	if idSet[procOtherID] {
		t.Errorf("footprint includes unrelated resource %d", procOtherID)
	}
	// Ancestors of the constraint partner (machine /GM/MCR etc.) appear:
	// the footprint must be strictly larger than the four direct entries.
	if len(ids) <= 4 {
		t.Errorf("footprint = %v, want ancestors of the processor too", ids)
	}
	// Sorted, deduplicated.
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("footprint not sorted/deduped: %v", ids)
		}
	}

	if _, err := s.ExecutionResourceIDs(context.Background(), "ghost"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown execution: %v, want ErrNotFound", err)
	}
}

func TestExecutionsOfResults(t *testing.T) {
	s := seedStudy(t)
	ids, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	execs, err := s.ExecutionsOfResults(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(execs, []string{"irs-frost", "irs-mcr"}) {
		t.Errorf("executions = %v", execs)
	}
	// Unknown result IDs are skipped, not fatal.
	execs, err = s.ExecutionsOfResults([]int64{99999})
	if err != nil {
		t.Fatal(err)
	}
	if len(execs) != 0 {
		t.Errorf("bogus ids resolved to %v", execs)
	}
}
