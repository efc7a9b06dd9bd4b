package main

import (
	"strings"
	"testing"

	"perftrack/bench/e2e/corpus"
)

var testSizing = sizing{baseExecs: 2, replayExecs: 2, calibBytes: 8 << 20}

func keys(list []op) []string {
	out := make([]string, len(list))
	for i, o := range list {
		out[i] = o.kind + "\t" + o.key
	}
	return out
}

// Work is fixed: the same seed and length give the same requests in the
// same order, and another seed gives other requests.
func TestOpListsAreDeterministic(t *testing.T) {
	for _, w := range workloads {
		a := newPlan(w, testSizing, 1, 1, 1)
		b := newPlan(w, testSizing, 1, 1, 1)
		c := newPlan(w, testSizing, 2, 1, 1)
		ka, kb, kc := keys(a.measured), keys(b.measured), keys(c.measured)
		if strings.Join(ka, "\n") != strings.Join(kb, "\n") {
			t.Errorf("%s: two plans from seed 1 differ", w.name)
		}
		if strings.Join(keys(a.warm), "\n") != strings.Join(keys(b.warm), "\n") {
			t.Errorf("%s: two warm-up lists from seed 1 differ", w.name)
		}
		if w.name != wlIngestBulk && strings.Join(ka, "\n") == strings.Join(kc, "\n") {
			t.Errorf("%s: seeds 1 and 2 give the same list", w.name)
		}
		for i := range a.measured {
			if a.measured[i].ptdfBytes != b.measured[i].ptdfBytes {
				t.Errorf("%s: op %d carries %d bytes in one plan and %d in the other", w.name, i, a.measured[i].ptdfBytes, b.measured[i].ptdfBytes)
			}
		}
	}
}

func TestMixCountsAreExact(t *testing.T) {
	count := func(list []op) map[string]int {
		m := map[string]int{}
		for _, o := range list {
			m[o.kind]++
		}
		return m
	}
	c := corpus.Generate(1, 2)

	qi, _ := workloadByName(wlQueryInteractive)
	got := count(qi.build(newOpGen(c, 1), 1000))
	want := map[string]int{opCountHot: 300, opCountCold: 100, opSQLHot: 200, opSQLCold: 200, opPage: 150, opAttrs: 50}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("query_interactive: %d %s ops in 1000, want %d", got[k], k, n)
		}
	}

	rb, _ := workloadByName(wlRetrieveBulk)
	got = count(rb.build(newOpGen(c, 1), 240))
	want = map[string]int{opStreamExec: 150, opCompare: 60, opPageBig: 22, opDiagnose: 8}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("retrieve_bulk: %d %s ops in 240, want %d", got[k], k, n)
		}
	}

	// mixed_rw: every 20th op is a write, the rest keep the read mix.
	mrw, _ := workloadByName(wlMixedRW)
	list := mrw.build(newOpGen(c, 1), 1000)
	if len(list) != 1000 {
		t.Fatalf("mixed_rw list has %d ops, want 1000", len(list))
	}
	for i, o := range list {
		if isWrite := o.kind == opLoadSmall; isWrite != (i%20 == 19) {
			t.Fatalf("mixed_rw op %d is %s; writes belong at every 20th position and nowhere else", i, o.kind)
		}
	}
	got = count(list)
	want = map[string]int{opLoadSmall: 50, opCountHot: 285, opCountCold: 95, opSQLHot: 190, opSQLCold: 190, opPage: 143, opAttrs: 47}
	sum := 0
	for k, n := range want {
		sum += got[k]
		// the two kinds with a half op each get it by largest remainder
		if d := got[k] - n; d < 0 || d > 1 {
			t.Errorf("mixed_rw: %d %s ops in 1000, want %d or %d", got[k], k, n, n+1)
		}
	}
	if sum != 1000 {
		t.Errorf("mixed_rw kinds sum to %d, want 1000", sum)
	}
}

// A cold request must never repeat — within a list, between the warm-up
// and the measured list — and must never equal a hot one, or the caches
// it is meant to miss would serve it.
func TestColdStreamsNeverRepeat(t *testing.T) {
	for _, name := range []string{wlQueryInteractive, wlMixedRW} {
		w, _ := workloadByName(name)
		p := newPlan(w, testSizing, 7, 5, 1)
		seen := map[string]string{}
		hot := map[string]bool{}
		for _, o := range append(append([]op(nil), p.warm...), p.measured...) {
			switch o.kind {
			case opCountHot, opSQLHot:
				hot[o.key] = true
			case opCountCold, opSQLCold:
				if prev, dup := seen[o.key]; dup {
					t.Fatalf("%s: cold request %q issued twice (%s and %s)", name, o.key, prev, o.kind)
				}
				seen[o.key] = o.kind
			}
		}
		for k := range seen {
			if hot[k] {
				t.Errorf("%s: cold request %q is also in a hot pool", name, k)
			}
		}
		if _, dup := seen[p.probeSQL]; dup {
			t.Errorf("%s: the profile probe repeats a cold statement", name)
		}
		if len(hot) == 0 || len(seen) == 0 {
			t.Errorf("%s: list has %d hot and %d cold distinct requests", name, len(hot), len(seen))
		}
	}
}

// The cold pr-filter stream is finite. It must fail loudly at its end,
// never wrap around into filters the match cache has already seen, and
// a -seconds that would reach the end must be refused up front.
func TestColdStreamNeverWraps(t *testing.T) {
	g := newOpGen(corpus.Generate(1, 1), 1)
	seen := map[string]bool{}
	defer func() {
		if recover() == nil {
			t.Errorf("drew %d cold filters from a 1-execution corpus without reaching the end of the stream", len(seen))
		}
		if want := corpus.Full.Funcs * corpus.Full.Procs; len(seen) < want {
			t.Errorf("stream ended after %d filters, the corpus has %d combinations", len(seen), want)
		}
	}()
	for i := 0; i < 1<<20; i++ {
		key := strings.Join(specs(g.coldFamilies()), " & ")
		if seen[key] {
			t.Fatalf("cold filter %q drawn twice", key)
		}
		seen[key] = true
	}
}

func TestCheckSizes(t *testing.T) {
	if err := checkSizes(workloads, refSizing, 60); err != nil {
		t.Errorf("the longest run the benchmark contract allows is refused: %v", err)
	}
	if err := checkSizes(workloads, refSizing, 1000); err == nil {
		t.Error("a run that needs more cold filters than the base corpus has is accepted")
	}
}
