package datastore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
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
	load(t, s, `ResourceAttribute /GM/MCR/batch/n0/p0 "clock MHz" 2400 string`)
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
	var doc []string
	for i := 0; i < MaxAttrDomain+8; i++ {
		name := "/app" + string(rune('a'+i/26)) + string(rune('a'+i%26))
		doc = append(doc, "Resource "+name+" application", "ResourceAttribute "+name+" serial "+name[1:]+" string")
	}
	load(t, s, doc...)
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
	load(t, s, "Resource /a application", "Resource /b application")
	id1, id2 := resourceID(t, s, "/a"), resourceID(t, s, "/b")
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
		load(t, s, fmt.Sprintf("ResourceAttribute %s %s %s string", set.res, set.attr, set.val))
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
	load(t, s,
		"Resource /irs application",
		"Resource /GM/MCR/batch/n0/p0 grid/machine/partition/node/processor",
		"Execution e1 irs",
		"Resource /e1 execution e1",
		"Resource /GF/Frost/batch/n9/p0 grid/machine/partition/node/processor",
		// A process scoped to e1, constrained to the processor it ran on.
		"Resource /e1/pid100 execution/process e1",
		"ResourceConstraint /e1/pid100 /GM/MCR/batch/n0/p0")
	appID, procID, execResID := resourceID(t, s, "/irs"), resourceID(t, s, "/GM/MCR/batch/n0/p0"), resourceID(t, s, "/e1")
	procOtherID, procResID := resourceID(t, s, "/GF/Frost/batch/n9/p0"), resourceID(t, s, "/e1/pid100")
	addResult(t, s, "e1", "wall time", 42, "/irs", "/e1")

	results, err := s.ExecutionResultIDs("e1")
	if err != nil {
		t.Fatal(err)
	}
	var foci []int64
	if err := s.ResultFoci(context.Background(), results, func(_ int, focus int64) { foci = append(foci, focus) }); err != nil {
		t.Fatal(err)
	}
	var resources []int64
	rids, _, err := s.FocusResources(context.Background(), sortDedup(foci), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rids {
		resources = append(resources, r...)
	}
	ids, err := s.ExecutionResourceIDs("e1", sortDedup(resources))
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

	if _, err := s.ExecutionResourceIDs("ghost", nil); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown execution: %v, want ErrNotFound", err)
	}
}

// countingCtx counts its Err calls.
type countingCtx struct {
	context.Context
	n int
}

func (c *countingCtx) Err() error {
	c.n++
	return nil
}

// TestExecutionsOfResults reads owners off sets of every form over a
// store whose performance_result is part segments, part uncompacted
// tail, and compares each with a per-ID oracle (ResultByID, skipping
// IDs no row carries). A set read by block pass checks ctx once per
// block of its range; one read by lookups checks it once per 1024 IDs
// and scans no segment rows.
func TestExecutionsOfResults(t *testing.T) {
	s, fe := newSegmentStore(t)
	fe.SetSegmentFlushRows(1 << 40) // the compactor runs only when asked
	seedSegmentStudy(t, s)
	load(t, s, "Execution m-two irs", "Execution m-three irs")
	commit := func(exec string, n int) {
		b := s.NewBatch()
		for i := range n {
			b.Stage(ptdf.PerfResultRec{
				Exec: exec, Metric: "metric", Value: float64(i), Units: "seconds", Tool: "test",
				Sets: []ptdf.ResourceSet{{Names: []core.ResourceName{"/irs"}, Type: core.FocusPrimary}},
			})
		}
		if _, err := b.CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	commit("m-mcr", 300)
	commit("m-two", 300)
	if err := fe.CompactSegments(); err != nil {
		t.Fatal(err)
	}
	commit("m-three", 300) // these and the rest stay in the tail
	commit("m-mcr", 50)
	all, err := s.MatchingResultIDsCtx(context.Background(), core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 950 {
		t.Fatalf("%d results, want 950", len(all))
	}
	every := func(k int) []int64 {
		var out []int64
		for i := 0; i < len(all); i += k {
			out = append(out, all[i])
		}
		return out
	}
	last := all[len(all)-1]
	for _, c := range []struct {
		name    string
		ids     []int64
		width   uint8 // of the set: 0 is the bitmap form
		lookups bool  // read one ID at a time, not by block pass
	}{
		{"bitmap, segments and tail", all, 0, false},
		{"bitmap, one segment", all[:300], 0, false},
		{"offsets at width 1", []int64{all[310], all[400], all[500]}, 1, false},
		{"offsets at width 2, segments and tail", every(97), 2, false},
		{"sparse offsets across the table", []int64{all[5], all[475], all[940], last + 5000}, 2, true},
		{"offsets at width 4, an ID no row carries", []int64{all[0], all[700], last + 70000}, 4, true},
		{"offsets at width 8, an ID no row carries", []int64{all[650], last + 1<<40}, 8, true},
		{"only IDs no row carries", []int64{last + 1, last + 99}, 1, false},
		{"empty", nil, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			set := NewIDSet(c.ids)
			if set.width != c.width {
				t.Fatalf("set of %d IDs has width %d, want %d", len(c.ids), set.width, c.width)
			}
			checks := &countingCtx{Context: context.Background()}
			scanned := s.tel.segmentRowsScanned.Load()
			got, err := s.ExecutionsOfResults(checks, set)
			if err != nil {
				t.Fatal(err)
			}
			scanned = s.tel.segmentRowsScanned.Load() - scanned
			wantChecks := 0
			if c.lookups {
				wantChecks = (len(c.ids) + 1023) / 1024
				if scanned != 0 {
					t.Errorf("%d IDs read by lookups scanned %d segment rows", len(c.ids), scanned)
				}
			} else if len(c.ids) > 0 {
				scan, err := s.Blocks("performance_result", c.ids[0], c.ids[len(c.ids)-1])
				if err != nil {
					t.Fatal(err)
				}
				scan.Each(func(*reldb.ColumnBlock) error { wantChecks++; return nil })
			}
			if checks.n != wantChecks {
				t.Errorf("%d ctx checks, want %d", checks.n, wantChecks)
			}
			want := []string{}
			for _, id := range c.ids {
				pr, err := s.ResultByID(id)
				if errors.Is(err, ErrNotFound) {
					continue
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Contains(want, pr.Execution) {
					want = append(want, pr.Execution)
				}
			}
			slices.Sort(want)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("ExecutionsOfResults = %v, per-ID oracle %v", got, want)
			}
		})
	}
}
