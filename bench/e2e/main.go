// Command e2e is the repository's reference benchmark: four fixed-work
// HTTP workloads against a real ptserved process, driven closed-loop by
// two clients through internal/client, with every response checked
// against an analytically known answer.
//
//	go run ./bench/e2e [-workload all|NAME] [-seed 1] [-seconds 10]   timed run
//	go run ./bench/e2e -trace 1                                      traced run (per-layer metrics, trace.json)
//	go run ./bench/e2e -repeat 5                                     self-agreement table over 5 sets of one seed
//	bash bench/e2e/run.sh ...                                        the same, with Go's caches kept inside the checkout
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (one such line per workload
// when several run); everything before it is the full report, which
// also holds the time-derived metrics that are measured but not gated.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

// buildDir is where the benchmark keeps everything it writes: the
// ptserved binary, replicate store directories, trace.json. It is the
// directory the benchmark contract reserves for build output and is
// listed in .gitignore.
const buildDir = ".bench_build"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Workload  string                 `json:"workload,omitempty"` // only when one command ran several
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// meta is the run's provenance: enough to tell two hosts, two commits
// or two configurations apart when comparing reports.
type meta struct {
	NProc       int       `json:"nproc"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	GoVersion   string    `json:"go_version"`
	Commit      string    `json:"commit"`
	Kernel      string    `json:"kernel"`
	Seed        int64     `json:"seed"`
	Seconds     int       `json:"seconds"`
	Clients     int       `json:"clients"`
	Replicates  int       `json:"replicates"`
	ServerFlags []string  `json:"server_flags"`
	CalibMS     []float64 `json:"calib_ms"` // before and after every replicate, in run order
}

type workloadReport struct {
	Workload   string                 `json:"workload"`
	Primary    string                 `json:"primary_op"`
	Ops        int                    `json:"ops_per_replicate"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Retries    uint64                 `json:"retries"` // requests re-sent after a refusal (429) or a transient error
	Failures   []string               `json:"failures,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
	Timing     map[string]metricValue `json:"ungated_timing"` // measured, printed, carried by no bound: see metrics.go
	Replicates []map[string]float64   `json:"replicates"`
	Reran      int                    `json:"replicates_rerun_for_drift"`
	OpsByKind  map[string]opStats     `json:"ops"`
}

type report struct {
	Meta      meta                          `json:"meta"`
	Workloads []workloadReport              `json:"workloads,omitempty"`
	PerLayer  map[string]metricValue        `json:"per_layer,omitempty"`
	Shares    map[string]map[string]float64 `json:"layer_share_of_replayed_time,omitempty"`
	Coverage  map[string]float64            `json:"replay_children_share_of_parent,omitempty"` // uncapped: above 1 the children outgrew the parent
	Trace     string                        `json:"trace_file,omitempty"`
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench/e2e:", err)
	}
	os.Exit(code)
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// moduleRoot walks up from the working directory to the go.mod of the
// perftrack module.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(raw)), "module perftrack") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the perftrack module (no go.mod found)")
		}
		dir = parent
	}
}

func newMeta(root string, seed int64, seconds int) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: "unknown", Kernel: "unknown", Seed: seed, Seconds: seconds,
		Clients: clients, Replicates: replicates, ServerFlags: serverFlags,
	}
	// Not a git checkout: stays "unknown", and git is not started at all,
	// so it cannot go looking for a repository above the checkout.
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(raw))
	}
	return m
}

func values(vals map[string]float64, defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return out
}

func (wr *workloadRun) report() workloadReport {
	attempted, failed, failures := wr.counts()
	med := wr.metricsOf()
	rep := workloadReport{
		Workload: wr.plan.w.name, Primary: wr.plan.w.primary, Ops: len(wr.plan.measured),
		Attempted: attempted, Failed: failed, Failures: failures,
		Metrics: values(med, endToEnd), Timing: values(med, timing), OpsByKind: wr.opStats(),
	}
	for _, r := range wr.reps {
		rep.Replicates = append(rep.Replicates, r.e2e(wr.plan.w.primary))
		rep.Retries += r.retries
		if r.reran {
			rep.Reran++
		}
	}
	return rep
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	workloadFlag := fs.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", refSeconds, "about how long the measured lists of a workload's three replicates take in total on the reference host; op lists scale linearly with it")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and trace.json instead of end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run this many full sets back to back and print the self-agreement table")
	out := fs.String("out", "", "directory for trace.json (default: a fresh directory under "+buildDir+")")
	if err := fs.Parse(args); err != nil {
		return 2, nil // flag already printed the problem
	}
	if *seconds < 1 || fs.NArg() > 0 || *trace < 0 || *trace > 1 || *repeat < 0 {
		fs.Usage()
		return 2, errors.New("bad arguments")
	}
	var selected []workload
	if *workloadFlag == "all" {
		selected = workloads
	} else {
		w, ok := workloadByName(*workloadFlag)
		if !ok {
			return 2, fmt.Errorf("unknown workload %q (want all, %s)", *workloadFlag, strings.Join(workloadNames(), ", "))
		}
		selected = []workload{w}
	}

	if *trace == 1 {
		selected = workloads // the traced run always covers all four
	}
	if err := checkSizes(selected, refSizing, *seconds); err != nil {
		return 2, err
	}

	root, err := moduleRoot()
	if err != nil {
		return 1, err
	}
	work := filepath.Join(root, buildDir)
	if err := os.MkdirAll(work, 0o755); err != nil {
		return 1, err
	}
	logf("building cmd/ptserved")
	launch, err := buildServer(root, work)
	if err != nil {
		return 1, err
	}
	// Children die with the benchmark on every exit path: killed when run
	// returns, by a handler for the signals a user or driver sends, and by
	// the parent-death signal set on each child if the benchmark itself is
	// SIGKILLed.
	defer launch.killAll()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		launch.killAll()
		os.Exit(130)
	}()
	rn := &runner{launch: launch, sz: refSizing, workDir: work}
	rpt := report{Meta: newMeta(root, *seed, *seconds)}

	switch {
	case *trace == 1:
		outDir := *out
		if outDir == "" {
			outDir = filepath.Join(work, fmt.Sprintf("trace-%d", os.Getpid()))
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return 1, err
		}
		res, err := rn.traceRun(*seed, *seconds, outDir, logf)
		if err != nil {
			return 1, err
		}
		rpt.PerLayer = values(res.metrics, perLayer())
		rpt.Shares, rpt.Coverage, rpt.Trace = res.shares, res.coverage, res.tracePath
		rpt.Meta.CalibMS = res.calibs
		for _, f := range res.failures {
			logf("FAILED %s", f)
		}
		printTraceTables(res)
		if err := printJSON(rpt, true); err != nil {
			return 1, err
		}
		line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: rpt.PerLayer}
		if err := printJSON(line, false); err != nil {
			return 1, err
		}
		if res.failed > 0 {
			return 1, fmt.Errorf("%d of %d traced ops failed", res.failed, res.attempted)
		}
		return 0, nil

	case *repeat > 0:
		failed, err := rn.selfAgreement(selected, *seed, *seconds, *repeat)
		if err != nil {
			return 1, err
		}
		if failed > 0 {
			return 1, fmt.Errorf("%d ops failed", failed)
		}
		return 0, nil
	}

	plans := make([]*plan, len(selected))
	for i, w := range selected {
		plans[i] = newPlan(w, rn.sz, *seed, *seconds, 1)
	}
	runs, err := rn.runSet(plans, replicates, logf)
	if err != nil {
		return 1, err
	}
	var lines []resultLine
	totalFailed := 0
	for _, wr := range runs {
		wrep := wr.report()
		rpt.Workloads = append(rpt.Workloads, wrep)
		for _, r := range wr.reps {
			rpt.Meta.CalibMS = append(rpt.Meta.CalibMS, r.calib[0], r.calib[1])
		}
		for _, f := range wrep.Failures {
			logf("FAILED %s: %s", wrep.Workload, f)
		}
		totalFailed += wrep.Failed
		line := resultLine{Correct: wrep.Failed == 0, Attempted: wrep.Attempted, Failed: wrep.Failed, Metrics: wrep.Metrics}
		if len(runs) > 1 {
			line.Workload = wrep.Workload
		}
		lines = append(lines, line)
	}
	if err := printJSON(rpt, true); err != nil {
		return 1, err
	}
	for _, line := range lines {
		if err := printJSON(line, false); err != nil {
			return 1, err
		}
	}
	if totalFailed > 0 {
		return 1, fmt.Errorf("%d ops failed or gave a wrong answer", totalFailed)
	}
	return 0, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func printJSON(v any, indent bool) error {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}

// printTraceTables prints the two tables the README quotes: how much of
// each replayed parent span its children account for, and each layer's
// share of a workload's replayed time.
func printTraceTables(res *traceResult) {
	logf("\nreplay: children's summed time as a share of the parent span (below 100%%: the remainder is the handler's own time; above: the children, timed by separate calls, outgrew the parent)")
	for _, k := range opKinds {
		note := ""
		if res.coverage[k] > 1 {
			note = "  CHILDREN EXCEED PARENT"
		}
		logf("  %-12s %5.1f%%%s", k, res.coverage[k]*100, note)
	}
	logf("\nreplay: layer share of each workload's replayed time")
	for _, w := range workloads {
		shares := res.shares[w.name]
		write, engine := 0.0, 0.0
		var parts []string
		for _, l := range sortedKeys(shares) {
			if writeLayers[l] {
				write += shares[l]
			}
			if engineLayers[l] {
				engine += shares[l]
			}
			parts = append(parts, fmt.Sprintf("%s %.1f%%", l, shares[l]*100))
		}
		logf("  %-18s write path %5.1f%%, planner+filter+cache %5.1f%%  [%s]", w.name, write*100, engine*100, strings.Join(parts, ", "))
	}
	logf("\ntrace written to %s", res.tracePath)
}
