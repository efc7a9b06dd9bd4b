// Package corpus generates the benchmark's PTdf inputs and the answers
// the server must give for them. Everything is a pure function of the
// seed and the sizes: the program under test only ever sees the generated
// bytes, and every response is checked against the model kept here.
//
// The data is a full cross product per execution — every process ×
// every function × every metric has exactly one result, whose single
// primary context names the process, the function and the processor the
// process ran on — so a pr-filter's match count is a product of set
// sizes and needs no second implementation of the filter engine.
package corpus

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"strconv"

	"perftrack/internal/core"
	"perftrack/internal/ptdf"
)

// Shape is the per-execution cross product.
type Shape struct{ Procs, Funcs, Metrics int }

// Results is the number of performance results one execution carries.
func (s Shape) Results() int { return s.Procs * s.Funcs * s.Metrics }

var (
	// Full is doc_full: 64 × 8 × 8 = 4096 results, one segment's worth at
	// the engine's default 4096-row flush threshold.
	Full = Shape{Procs: 64, Funcs: 8, Metrics: 8}
	// Small is doc_small, the write of mixed_rw: 8 × 4 × 8 = 256 results,
	// so sixteen of them fill one compaction cycle.
	Small = Shape{Procs: 8, Funcs: 4, Metrics: 8}
)

const (
	App      = "benchapp"
	Tool     = "benchtool"
	Machines = 4 // machine hierarchies the executions are spread over
	// NodesPer × CoresPer processors per machine; process p runs on node
	// p/CoresPer, core p%CoresPer of its execution's machine.
	NodesPer = 8
	CoresPer = 8
	// SmallMax bounds every doc_small value and MinThreshold is the
	// lowest constant any generated SQL predicate compares against, so a
	// doc_small landing mid-run cannot change a read's answer.
	SmallMax     = 5.0
	MinThreshold = 10.0
)

// metricNames: the first half is time-like (units "seconds"), which is
// what /v1/diagnose measures by default and what the planted compiler
// slowdown scales.
var metricNames = []string{
	"cpu_time", "wall_time", "mpi_time", "io_time",
	"fp_ops", "l2_misses", "msgs_sent", "bytes_sent",
}

// Metric returns the name and units of metric m.
func Metric(m int) (name, units string) {
	if m < len(metricNames)/2 {
		return metricNames[m], "seconds"
	}
	return metricNames[m], "count"
}

// Exec is one generated execution and its ground truth.
type Exec struct {
	Name      string
	Machine   int    // index of the machine hierarchy it ran on
	Compiler  string // "-O2" or "-O0"; -O0 runs time-like metrics 1.8x slower
	NProcs    string // decoy attribute
	InputDeck string // decoy attribute
	Shape     Shape
	// Values is indexed [(p*Funcs+f)*Metrics+m].
	Values []float64
}

// Value returns the result value of process p, function f, metric m.
func (e *Exec) Value(p, f, m int) float64 {
	return e.Values[(p*e.Shape.Funcs+f)*e.Shape.Metrics+m]
}

// AttrNames are the attributes every full execution carries on its
// execution resource.
var AttrNames = []string{"compiler", "nprocs", "machine", "inputdeck"}

// Attr returns the value of one of AttrNames.
func (e *Exec) Attr(name string) string {
	switch name {
	case "compiler":
		return e.Compiler
	case "nprocs":
		return e.NProcs
	case "machine":
		return fmt.Sprintf("M%d", e.Machine)
	case "inputdeck":
		return e.InputDeck
	}
	return ""
}

// Sum is the sum of every result value of the execution.
func (e *Exec) Sum() float64 {
	s := 0.0
	for _, v := range e.Values {
		s += v
	}
	return s
}

// Corpus is the generated data set: N full-shape executions plus the
// lookup structures the oracle answers from.
type Corpus struct {
	Seed  int64
	Execs []*Exec

	// Per metric and per execution: values ascending, with prefix sums,
	// for "WHERE value > T" aggregates.
	byMetric []sortedVals
	byExec   []sortedVals
}

type sortedVals struct {
	vals   []float64
	prefix []float64 // prefix[i] = sum(vals[:i])
}

func newSortedVals(vals []float64) sortedVals {
	sort.Float64s(vals)
	prefix := make([]float64, len(vals)+1)
	for i, v := range vals {
		prefix[i+1] = prefix[i] + v
	}
	return sortedVals{vals: vals, prefix: prefix}
}

// Agg is an aggregate over the values above a threshold.
type Agg struct {
	Count         int
	Sum, Min, Max float64
}

// Avg is Sum/Count.
func (a Agg) Avg() float64 { return a.Sum / float64(a.Count) }

func (s sortedVals) above(t float64) Agg {
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > t })
	n := len(s.vals) - i
	if n == 0 {
		return Agg{}
	}
	return Agg{Count: n, Sum: s.prefix[len(s.vals)] - s.prefix[i], Min: s.vals[i], Max: s.vals[len(s.vals)-1]}
}

// ExecName is the name of the i'th full execution.
func ExecName(i int) string { return fmt.Sprintf("e%04d", i) }

// SmallName is the name of the i'th doc_small execution.
func SmallName(i int) string { return fmt.Sprintf("s%05d", i) }

// Generate builds the corpus of execs full-shape executions for a seed.
func Generate(seed int64, execs int) *Corpus {
	rng := rand.New(rand.NewSource(seed))
	c := &Corpus{Seed: seed}
	// Exact half/half compiler split, shuffled so it is independent of
	// execution order and of the machine an execution ran on.
	slow := make([]bool, execs)
	for i := 0; i < execs/2; i++ {
		slow[i] = true
	}
	rng.Shuffle(execs, func(i, j int) { slow[i], slow[j] = slow[j], slow[i] })
	for i := 0; i < execs; i++ {
		e := &Exec{
			Name:      ExecName(i),
			Machine:   i % Machines,
			Compiler:  "-O2",
			NProcs:    []string{"64", "128"}[rng.Intn(2)],
			InputDeck: []string{"std.deck", "large.deck"}[rng.Intn(2)],
			Shape:     Full,
			Values:    make([]float64, Full.Results()),
		}
		factor := 1.0
		if slow[i] {
			e.Compiler, factor = "-O0", 1.8
		}
		for j := range e.Values {
			if m := j % Full.Metrics; m < Full.Metrics/2 {
				e.Values[j] = round6((MinThreshold + 40*rng.Float64()) * factor)
			} else {
				e.Values[j] = round6(MinThreshold + 80*rng.Float64())
			}
		}
		c.Execs = append(c.Execs, e)
	}
	perMetric := make([][]float64, Full.Metrics)
	for _, e := range c.Execs {
		for j, v := range e.Values {
			perMetric[j%Full.Metrics] = append(perMetric[j%Full.Metrics], v)
		}
		c.byExec = append(c.byExec, newSortedVals(append([]float64(nil), e.Values...)))
	}
	for _, vals := range perMetric {
		c.byMetric = append(c.byMetric, newSortedVals(vals))
	}
	return c
}

// round6 keeps six decimals so the PTdf text round-trips the float the
// oracle holds.
func round6(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 6, 64), 64)
	return r
}

// Results is the number of results the full executions carry in total.
func (c *Corpus) Results() int { return len(c.Execs) * Full.Results() }

// AboveByMetric answers "WHERE value > t GROUP BY metric": one Agg per
// metric, in Metric index order.
func (c *Corpus) AboveByMetric(t float64) []Agg {
	out := make([]Agg, len(c.byMetric))
	for m, s := range c.byMetric {
		out[m] = s.above(t)
	}
	return out
}

// AboveByExec answers "WHERE value > t GROUP BY execution": one Agg per
// execution, in Execs order.
func (c *Corpus) AboveByExec(t float64) []Agg {
	out := make([]Agg, len(c.byExec))
	for i, s := range c.byExec {
		out[i] = s.above(t)
	}
	return out
}

// --- resource names ---

func machineName(m int) string { return fmt.Sprintf("/G%d/M%d", m, m) }
func nodeName(m, n int) string { return fmt.Sprintf("%s/pt/n%d", machineName(m), n) }
func coreName(m, p int) string {
	return fmt.Sprintf("%s/c%d", nodeName(m, p/CoresPer%NodesPer), p%CoresPer)
}
func funcName(prefix string, f int) string     { return fmt.Sprintf("/%s/m%d/f%d", prefix, f/4, f) }
func procName(exec, rank string, p int) string { return fmt.Sprintf("/%s/%s%d", exec, rank, p) }

// --- PTdf documents ---

type docWriter struct{ buf bytes.Buffer }

func (w *docWriter) rec(r ptdf.Record) {
	w.buf.WriteString(ptdf.FormatRecord(r))
	w.buf.WriteByte('\n')
}

func (w *docWriter) resource(name string, typ core.TypePath, exec string) {
	w.rec(ptdf.ResourceRec{Name: core.ResourceName(name), Type: typ, Exec: exec})
}

// SharedDoc declares what every execution document refers to: the
// application, the machine hierarchies (plus a fifth one for doc_small)
// and the two builds' functions.
func SharedDoc() []byte {
	var w docWriter
	w.rec(ptdf.ApplicationRec{Name: App})
	for m := 0; m <= Machines; m++ {
		for p := 0; p < NodesPer*CoresPer; p++ {
			// Ancestors (grid, machine, partition, node) are created
			// implicitly with the matching type prefix.
			w.resource(coreName(m, p), "grid/machine/partition/node/processor", "")
		}
	}
	for f := 0; f < Full.Funcs; f++ {
		w.resource(funcName("bld", f), "build/module/function", "")
	}
	for f := 0; f < Small.Funcs; f++ {
		w.resource(funcName("sbld", f), "build/module/function", "")
	}
	return w.buf.Bytes()
}

// writeExec renders one execution: its declaration, attributed execution
// resource, processes (named rank0, rank1, …), and the full cross product
// of results against the functions of build bld.
func writeExec(w *docWriter, e *Exec, bld, rank string, attrs [][2]string) {
	w.rec(ptdf.ExecutionRec{Name: e.Name, App: App})
	root := "/" + e.Name
	w.resource(root, "execution", e.Name)
	for _, a := range attrs {
		w.rec(ptdf.ResourceAttributeRec{Resource: core.ResourceName(root), Attr: a[0], Value: a[1], AttrType: "string"})
	}
	for p := 0; p < e.Shape.Procs; p++ {
		w.resource(procName(e.Name, rank, p), "execution/process", e.Name)
	}
	for p := 0; p < e.Shape.Procs; p++ {
		for f := 0; f < e.Shape.Funcs; f++ {
			sets := []ptdf.ResourceSet{{
				Names: []core.ResourceName{
					core.ResourceName(procName(e.Name, rank, p)),
					core.ResourceName(funcName(bld, f)),
					core.ResourceName(coreName(e.Machine, p)),
				},
				Type: core.FocusPrimary,
			}}
			for m := 0; m < e.Shape.Metrics; m++ {
				name, units := Metric(m)
				w.rec(ptdf.PerfResultRec{
					Exec: e.Name, Sets: sets, Tool: Tool,
					Metric: name, Units: units, Value: e.Value(p, f, m),
				})
			}
		}
	}
}

// ExecDoc renders doc_full for execution i.
func (c *Corpus) ExecDoc(i int) []byte {
	e := c.Execs[i]
	var w docWriter
	attrs := make([][2]string, len(AttrNames))
	for i, name := range AttrNames {
		attrs[i] = [2]string{name, e.Attr(name)}
	}
	writeExec(&w, e, "bld", "p", attrs)
	return w.buf.Bytes()
}

// SmallDoc renders the i'th doc_small. It lives on its own machine
// hierarchy and build, names its processes q0… where the full executions
// have p0…, carries none of the attribute keys the read mix asks about,
// and every value is below SmallMax — so no answer the oracle gives for
// the full executions changes when one is committed.
func (c *Corpus) SmallDoc(i int) []byte {
	rng := rand.New(rand.NewSource(c.Seed<<20 ^ int64(i)))
	e := &Exec{Name: SmallName(i), Machine: Machines, Shape: Small, Values: make([]float64, Small.Results())}
	for j := range e.Values {
		e.Values[j] = round6(0.5 + (SmallMax-1)*rng.Float64())
	}
	var w docWriter
	writeExec(&w, e, "sbld", "q", [][2]string{{"origin", "mixed_rw"}})
	return w.buf.Bytes()
}

// --- pr-filter families ---

// Family is one pr-filter family spec together with the set of
// (execution, process, function) triples whose results it selects. Each
// generated family selects a product set, so intersecting families is a
// bitwise AND per dimension.
type Family struct {
	Spec  string
	Execs []bool // indexed like Corpus.Execs
	Procs uint64 // bit p set = process p selected
	Funcs uint8  // bit f set = function f selected
}

const (
	allProcs = ^uint64(0)
	allFuncs = ^uint8(0)
)

func (c *Corpus) allExecs() []bool { return c.execsWhere(func(*Exec) bool { return true }) }

func (c *Corpus) execsWhere(keep func(*Exec) bool) []bool {
	out := make([]bool, len(c.Execs))
	for i, e := range c.Execs {
		out[i] = keep(e)
	}
	return out
}

// FamExec selects one execution (the execution resource and, through the
// default rel=D, its processes).
func (c *Corpus) FamExec(i int) Family {
	return Family{Spec: "name=/" + c.Execs[i].Name, Execs: c.execsWhere(func(e *Exec) bool { return e == c.Execs[i] }), Procs: allProcs, Funcs: allFuncs}
}

// FamAttr selects the executions whose attribute equals value.
func (c *Corpus) FamAttr(attr, value string) Family {
	return Family{
		Spec:  "type=execution;attr=" + attr + "=" + value,
		Execs: c.execsWhere(func(e *Exec) bool { return e.Attr(attr) == value }),
		Procs: allProcs, Funcs: allFuncs,
	}
}

// FamMachine selects everything that ran on machine m.
func (c *Corpus) FamMachine(m int) Family {
	return Family{Spec: "name=" + machineName(m), Execs: c.execsWhere(func(e *Exec) bool { return e.Machine == m }), Procs: allProcs, Funcs: allFuncs}
}

// FamNode selects the processes that ran on node n of machine m.
func (c *Corpus) FamNode(m, n int) Family {
	return Family{Spec: "name=" + nodeName(m, n), Execs: c.execsWhere(func(e *Exec) bool { return e.Machine == m }), Procs: uint64(1<<CoresPer-1) << (n * CoresPer), Funcs: allFuncs}
}

// FamFunc selects function f of the shared build.
func (c *Corpus) FamFunc(f int) Family {
	return Family{Spec: "name=" + funcName("bld", f), Execs: c.allExecs(), Procs: allProcs, Funcs: 1 << f}
}

// FamModule selects the four functions of build module mod.
func (c *Corpus) FamModule(mod int) Family {
	return Family{Spec: fmt.Sprintf("name=/bld/m%d", mod), Execs: c.allExecs(), Procs: allProcs, Funcs: 0x0f << (mod * 4)}
}

// FamProc selects process rank p of every execution, by base name.
func (c *Corpus) FamProc(p int) Family {
	return Family{Spec: fmt.Sprintf("base=p%d;rel=N", p), Execs: c.allExecs(), Procs: 1 << p, Funcs: allFuncs}
}

// Count is the number of results of the full executions that every one
// of the families selects.
func (c *Corpus) Count(fams ...Family) int {
	procs, funcs := allProcs, allFuncs
	execs := 0
	for i := range c.Execs {
		in := true
		for _, f := range fams {
			in = in && f.Execs[i]
		}
		if in {
			execs++
		}
	}
	for _, f := range fams {
		procs &= f.Procs
		funcs &= f.Funcs
	}
	return execs * bits.OnesCount64(procs) * bits.OnesCount8(funcs) * Full.Metrics
}
