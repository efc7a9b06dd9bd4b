package main

import (
	"fmt"
	"math"

	"perftrack/bench/e2e/corpus"
)

// Workload names are final; later issues cite them.
const (
	wlIngestBulk       = "ingest_bulk"
	wlQueryInteractive = "query_interactive"
	wlRetrieveBulk     = "retrieve_bulk"
	wlMixedRW          = "mixed_rw"
)

// share is one op kind's part of a mix, in parts of the mix's total.
type share struct {
	kind  string
	parts int
}

// workload describes one traffic mix. The measured list has refOps
// operations when the run measures for refSeconds; -seconds scales it
// linearly. Work is fixed, not timed: the same seed and -seconds always
// produce byte-identical requests.
type workload struct {
	name    string
	primary string // the op whose median latency is primary_p50_ms
	base    bool   // set-up loads the base corpus
	refOps  int
	mix     []share
	// writeEvery > 0 replaces every writeEvery'th op of the read mix with
	// a doc_small load.
	writeEvery int
}

// refSeconds is the -seconds value the refOps sizes are written for: at
// it, the three replicates of a workload measure for about fifteen
// seconds in total on the 2-core reference host.
const refSeconds = 15

// sizing holds the corpus sizes. The reference sizes are what every
// reported number is measured at; the hermetic tests shrink them.
type sizing struct {
	baseExecs   int // executions in the base corpus of the three read workloads
	replayExecs int // executions in the store of the in-process layer replay
	calibBytes  int // work of one pass of the reference kernel
}

// refSizing: the base corpus is 16 × 4096 = 65 536 results in ~16
// segments (~6.6 MB of PTdf, ~230 MB server RSS). It is kept this small
// so that a run's three set-ups fit the benchmark's time budget and so
// that the server's heap is collected a dozen times per measured list
// rather than twice — with a 375 MB heap the throughput of a 4 s list
// moved by a tenth depending on whether it contained two GC cycles or
// three. The replay's store is the same size, and its sixteen loads give
// the load replay eight parent and eight child samples.
var refSizing = sizing{baseExecs: 16, replayExecs: 16, calibBytes: 48 << 20}

// interactiveMix is the GUI loop: live counts, grouped aggregates, table
// pages and attribute listings, in tenths-of-a-percent precision.
var interactiveMix = []share{
	{opCountHot, 30}, {opCountCold, 10}, {opSQLHot, 20}, {opSQLCold, 20}, {opPage, 15}, {opAttrs, 5},
}

var workloads = []workload{
	{name: wlIngestBulk, primary: opLoadDoc, refOps: 75, mix: []share{{opLoadDoc, 1}}},
	{name: wlQueryInteractive, primary: opSQLCold, base: true, refOps: 6000, mix: interactiveMix},
	{name: wlRetrieveBulk, primary: opStreamExec, base: true, refOps: 180,
		mix: []share{{opStreamExec, 150}, {opCompare, 60}, {opPageBig, 22}, {opDiagnose, 8}}},
	{name: wlMixedRW, primary: opSQLCold, base: true, refOps: 1500, mix: interactiveMix, writeEvery: 20},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ops returns how many operations the measured list holds for a run of
// the given length; the traced run divides it by fraction.
func (w workload) ops(seconds, fraction int) int {
	return max(len(w.mix)*2, w.refOps*seconds/refSeconds/fraction)
}

// checkSizes refuses a run whose lists would outrun the never-repeated
// cold pr-filter stream of the base corpus (one filter per execution ×
// function × process rank, and a few attribute-selected ones on top,
// which this ignores): a repeated filter is served by the match cache
// and count_cold would silently stop being cold.
func checkSizes(ws []workload, sz sizing, seconds int) error {
	have := sz.baseExecs * corpus.Full.Funcs * corpus.Full.Procs
	for _, w := range ws {
		n := w.ops(seconds, 1)
		if need := w.coldCounts(n) + w.coldCounts(w.warmOps(n)); w.base && need > have {
			return fmt.Errorf("%s: -seconds %d needs %d never-repeated pr-filters, the %d-execution base corpus has %d", w.name, seconds, need, sz.baseExecs, have)
		}
	}
	return nil
}

// coldCounts is how many count_cold ops a list of n ops holds.
func (w workload) coldCounts(n int) int {
	if w.writeEvery > 0 {
		n -= n / w.writeEvery
	}
	return apportion(w.mix, n)[opCountCold]
}

// apportion splits n into exact per-kind counts by largest remainder, so
// the mix holds for every n and the counts always sum to n.
func apportion(mix []share, n int) map[string]int {
	total := 0
	for _, s := range mix {
		total += s.parts
	}
	counts := make(map[string]int, len(mix))
	type rem struct {
		kind string
		frac float64
	}
	var rems []rem
	given := 0
	for _, s := range mix {
		exact := float64(n) * float64(s.parts) / float64(total)
		counts[s.kind] = int(math.Floor(exact))
		given += counts[s.kind]
		rems = append(rems, rem{s.kind, exact - math.Floor(exact)})
	}
	for given < n {
		best := 0
		for i := range rems {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].kind]++
		rems[best].frac = -1
		given++
	}
	return counts
}

// corpusExecs is how many full executions the workload's corpus needs
// for a warm-up list of warm ops and a measured list of n ops.
func (w workload) corpusExecs(sz sizing, warm, n int) int {
	if w.base {
		return sz.baseExecs
	}
	return warm + n
}

// build generates an op list of n operations in the workload's mix,
// shuffled by the generator's seeded source.
func (w workload) build(g *opGen, n int) []op {
	reads := n
	if w.writeEvery > 0 {
		reads = n - n/w.writeEvery
	}
	counts := apportion(w.mix, reads)
	kinds := make([]string, 0, reads)
	for _, s := range w.mix {
		for i := 0; i < counts[s.kind]; i++ {
			kinds = append(kinds, s.kind)
		}
	}
	g.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	list := make([]op, 0, n)
	for _, kind := range kinds {
		if w.writeEvery > 0 && len(list)%w.writeEvery == w.writeEvery-1 {
			list = append(list, g.loadSmallOp())
		}
		list = append(list, g.newOp(kind))
	}
	for len(list) < n { // a trailing write slot
		list = append(list, g.loadSmallOp())
	}
	return list
}

func (g *opGen) newOp(kind string) op {
	switch kind {
	case opLoadDoc:
		return g.loadDocOp()
	case opCountHot:
		return g.hotCountOp()
	case opCountCold:
		return g.coldCountOp()
	case opSQLHot:
		return g.hotSQLOp()
	case opSQLCold:
		return g.coldSQLOp()
	case opPage:
		return g.pageOp()
	case opAttrs:
		return g.attrsOp()
	case opStreamExec:
		return g.streamExecOp()
	case opCompare:
		return g.compareOp()
	case opPageBig:
		return g.pageBigOp()
	case opDiagnose:
		return g.diagnoseOp()
	}
	panic("bench/e2e: no generator for op kind " + kind)
}

// warmList touches what a user's session would already have touched
// before the timed part: every hot pool entry once (so the caches the
// hot ops rely on are filled) plus a short slice of the mix itself.
func (w workload) warmList(g *opGen, n int) []op {
	var list []op
	if w.base && w.name != wlRetrieveBulk {
		for _, fams := range g.hotCount {
			list = append(list, g.countOp(opCountHot, fams))
		}
		for _, q := range g.hotSQL {
			list = append(list, g.sqlOp(opSQLHot, q))
		}
	}
	return append(list, w.build(g, n)...)
}

// warmOps is the length of the mix slice in the warm-up: a twentieth of
// the measured list, and at least as many ops as the mix has kinds.
func (w workload) warmOps(n int) int { return max(len(w.mix), n/20) }

// plan is everything one run of a workload executes: the corpus, the
// warm-up list and the measured list. Replicates share it, so every
// replicate sends byte-identical requests.
type plan struct {
	w        workload
	corpus   *corpus.Corpus
	setup    []op // after the shared resources: the base corpus, one /v1/load per execution
	warm     []op
	measured []op
	probeSQL string // one more never-issued sql_cold statement, for the traced run's profile
}

func newPlan(w workload, sz sizing, seed int64, seconds, fraction int) *plan {
	n := w.ops(seconds, fraction)
	warm := w.warmOps(n)
	c := corpus.Generate(seed, w.corpusExecs(sz, warm, n))
	g := newOpGen(c, seed)
	p := &plan{w: w, corpus: c, warm: w.warmList(g, warm), measured: w.build(g, n), probeSQL: g.coldSQL().text}
	if w.base {
		for i, e := range c.Execs {
			p.setup = append(p.setup, loadOp(opLoadDoc, e.Name, c.ExecDoc(i), corpus.Full.Results()))
		}
	}
	return p
}
