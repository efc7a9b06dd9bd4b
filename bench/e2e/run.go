package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/client"
	"perftrack/internal/planner"
	"perftrack/internal/server"
)

// clients is the closed-loop concurrency: PerfTrack's callers (the GUI,
// ptload and ptquery scripts) each wait for a reply before sending the
// next request, and the reference host has two cores.
const clients = 2

// replicates per run of a workload; every end-to-end metric is the
// median of their values.
const replicates = 3

// calibDrift is how far the reference kernel may move between the start
// and the end of a replicate before the replicate is run again.
const calibDrift = 0.10

// opTimeout bounds one request. Nothing in the workloads takes a
// hundredth of it; hitting it means the server hung.
const opTimeout = 60 * time.Second

// runner executes replicates of workloads against servers it launches.
type runner struct {
	launch  launcher
	sz      sizing
	workDir string // replicate store directories are created (and removed) here
	seq     atomic.Int64
	tr      *tracer // nil for timed runs: they carry no tracing
}

// replicate is what one replicate of one workload measured.
type replicate struct {
	setupS    float64
	wallS     float64
	busyS     float64 // summed latency of every measured op, failed ones included
	attempted int
	failed    int
	failures  []string             // first few failure messages
	latency   map[string][]float64 // ms, by op kind, in completion order
	cpuS      float64              // server utime+stime over the measured list
	rssPeakMB float64
	diskBytes int64
	ptdfBytes int64 // PTdf bytes the server acknowledged since it started
	calib     [2]float64
	reran     bool
	retries   uint64
	results   int64 // performance results those loads acknowledged
	// traced runs only: scrapes around the measured list, the /healthz
	// round trip, and the profile of one cold statement at the end
	before, after *scrape
	healthP50     float64
	endProfile    *planner.ExecProfileWire
}

func (r *replicate) okOps() int { return r.attempted - r.failed }

// opsPerS is the throughput of the closed loop: each of the clients is
// busy from its first request to its last, so OK ops per second is
// clients × OK ops ÷ the summed latency of every op sent. Unlike ops ÷
// wall time it does not charge the list for the idle tail in which one
// client has run out of work while the other finishes a long last op —
// up to a tenth of the wall time on retrieve_bulk.
func (r *replicate) opsPerS() float64 {
	if r.busyS == 0 {
		return 0
	}
	return clients * float64(r.okOps()) / r.busyS
}

// e2e returns the replicate's end-to-end metric values by name, gated
// and ungated alike.
func (r *replicate) e2e(primary string) map[string]float64 {
	ops := float64(max(r.okOps(), 1))
	return map[string]float64{
		"setup_s":                  r.setupS,
		"ops_per_s":                r.opsPerS(),
		"primary_p50_ms":           median(r.latency[primary]),
		"server_cpu_s_per_kop":     r.cpuS / ops * 1000,
		"rss_peak_mb":              r.rssPeakMB,
		"disk_bytes_per_ptdf_byte": float64(r.diskBytes) / float64(max(r.ptdfBytes, 1)),
	}
}

// newClient returns a client with its own connection pool, so the two
// closed-loop clients never share a connection.
func (rn *runner) newClient(baseURL string) *client.Client {
	c := client.New(baseURL)
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	if rn.tr != nil {
		rt = requestIDTransport{rt}
	}
	c.HTTPClient = &http.Client{Transport: rt}
	return c
}

// outcome is one executed op.
type outcome struct {
	start, end time.Time
	err        error
}

// drive dispatches the list from one shared queue to the closed-loop
// clients and returns each op's outcome plus the list's wall time.
func (rn *runner) drive(inst *instance, list []op, parent *span) ([]outcome, time.Duration, uint64) {
	out := make([]outcome, len(list))
	var next atomic.Int64
	var retries atomic.Uint64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := rn.newClient(inst.baseURL)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(list) {
					break
				}
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				var sp *span
				if rn.tr != nil && parent != nil {
					sp = rn.tr.start(parent, "client."+list[i].kind, "client")
					ctx = withRequestID(ctx, sp.RequestID)
				}
				out[i].start = time.Now()
				out[i].err = list[i].do(ctx, cl)
				out[i].end = time.Now()
				sp.end()
				cancel()
			}
			retries.Add(cl.Counters().Retries)
		}()
	}
	wg.Wait()
	return out, time.Since(start), retries.Load()
}

// mustSucceed runs an untimed list (set-up, warm-up) and fails on the
// first op that does not succeed: a server that cannot be set up cannot
// be measured.
func (rn *runner) mustSucceed(rep *replicate, inst *instance, what string, list []op) error {
	outs, _, _ := rn.drive(inst, list, nil)
	for i, o := range outs {
		if o.err != nil {
			return fmt.Errorf("%s: %s %s: %w", what, list[i].kind, list[i].key, o.err)
		}
		rep.acknowledge(list[i])
	}
	return nil
}

// acknowledge records what a successful load op put into the store.
func (r *replicate) acknowledge(o op) {
	r.ptdfBytes += int64(o.ptdfBytes)
	r.results += int64(o.results)
}

// quiesce waits until background compaction has nothing left to do:
// /v1/stats polls spanning at least 50 ms report the same compaction
// counters and every hot table's tail is below the flush threshold. It
// polls every 10 ms so that set-up time is not quantised to the span.
func quiesce(cl *client.Client) (server.StatsResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	first, err := cl.Stats(ctx)
	since := time.Now()
	for err == nil {
		select {
		case <-ctx.Done():
			return first, errors.New("store did not become quiescent within 60s")
		case <-time.After(10 * time.Millisecond):
		}
		var cur server.StatsResponse
		if cur, err = cl.Stats(ctx); err != nil {
			break
		}
		if !settled(first, cur) {
			first, since = cur, time.Now()
		} else if time.Since(since) >= 50*time.Millisecond {
			return cur, nil
		}
	}
	return first, fmt.Errorf("polling /v1/stats: %w", err)
}

func settled(a, b server.StatsResponse) bool {
	sa, sb := a.Storage.Segments, b.Storage.Segments
	if sa == nil || sb == nil {
		return sa == nil && sb == nil // not a segment engine: nothing runs in the background
	}
	if sa.SegmentsWritten != sb.SegmentsWritten || sa.Compactions != sb.Compactions {
		return false
	}
	for _, t := range sb.Tables {
		if t.PendingRows >= sb.FlushRows {
			return false
		}
	}
	return true
}

// runReplicate runs one replicate: fresh server on an empty directory,
// set-up, untimed warm-up, then the measured list.
func (rn *runner) runReplicate(p *plan, parent *span) (*replicate, error) {
	rep := &replicate{latency: map[string][]float64{}}
	rep.calib[0] = calibrate(rn.sz.calibBytes)
	dir := filepath.Join(rn.workDir, fmt.Sprintf("store-%d-%d", os.Getpid(), rn.seq.Add(1)))
	defer os.RemoveAll(dir)
	defer os.Remove(dir + ".log")

	t0 := time.Now()
	inst, err := rn.launch.start(dir)
	if err != nil {
		return nil, err
	}
	defer func() { inst.stop() }() // inst is replaced when the reopen check succeeds; stopping twice is harmless
	cl := rn.newClient(inst.baseURL)

	shared := corpus.SharedDoc()
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	_, err = cl.Load(ctx, bytes.NewReader(shared))
	cancel()
	if err != nil {
		return nil, fmt.Errorf("set-up: loading shared resources: %w", err)
	}
	rep.ptdfBytes = int64(len(shared))
	if err := rn.mustSucceed(rep, inst, "set-up", p.setup); err != nil {
		return nil, err
	}
	if _, err := quiesce(cl); err != nil {
		return nil, err
	}
	rep.setupS = time.Since(t0).Seconds()

	if err := rn.mustSucceed(rep, inst, "warm-up", p.warm); err != nil {
		return nil, err
	}

	if rn.tr != nil {
		if rep.before, err = takeScrape(cl, inst.baseURL); err != nil {
			return nil, err
		}
	}
	cpu0, err := cpuSeconds(inst.pid)
	if err != nil {
		return nil, err
	}
	outs, wall, retries := rn.drive(inst, p.measured, parent)
	cpu1, err := cpuSeconds(inst.pid)
	if err != nil {
		return nil, err
	}
	if rep.rssPeakMB, err = rssPeakMB(inst.pid); err != nil {
		return nil, err
	}
	rep.cpuS, rep.wallS, rep.retries = cpu1-cpu0, wall.Seconds(), retries
	for i, o := range outs {
		rep.attempted++
		rep.busyS += o.end.Sub(o.start).Seconds()
		if o.err != nil {
			rep.fail(fmt.Sprintf("%s %s: %v", p.measured[i].kind, p.measured[i].key, o.err))
			continue
		}
		rep.acknowledge(p.measured[i])
		kind := p.measured[i].kind
		rep.latency[kind] = append(rep.latency[kind], o.end.Sub(o.start).Seconds()*1000)
	}

	final, err := quiesce(cl)
	if err != nil {
		return nil, err
	}
	rep.diskBytes = final.Storage.Engine.DiskBytes
	if rn.tr != nil {
		if rep.after, err = takeScrape(cl, inst.baseURL); err != nil {
			return nil, err
		}
		if err := rn.tracedExtras(rep, inst, p); err != nil {
			return nil, err
		}
	}
	if p.w.name == wlIngestBulk {
		// Crash-reopen: kill -9 after the last acknowledged load, reopen
		// the same directory, and every acknowledged result must be
		// there. kill -9 keeps the OS page cache, so this proves
		// process-crash durability only (see README).
		inst.stop()
		rep.attempted++
		if reopened, err := rn.launch.start(dir); err != nil {
			rep.fail(fmt.Sprintf("crash-reopen: ptserved did not come back on the directory after kill -9: %v", err))
		} else {
			inst = reopened
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			st, err := rn.newClient(inst.baseURL).Stats(ctx)
			cancel()
			if err != nil || st.Store.Results != rep.results {
				rep.fail(fmt.Sprintf("crash-reopen: %d results after kill -9 and reopen (err %v), %d were acknowledged", st.Store.Results, err, rep.results))
			}
		}
	}
	rep.calib[1] = calibrate(rn.sz.calibBytes)
	return rep, nil
}

func (r *replicate) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// drifted reports whether the host's speed moved during the replicate.
func (r *replicate) drifted() bool {
	lo, hi := min(r.calib[0], r.calib[1]), max(r.calib[0], r.calib[1])
	return hi > lo*(1+calibDrift)
}

// workloadRun is the replicates of one workload within one run.
type workloadRun struct {
	plan *plan
	reps []*replicate
}

// runSet runs every given workload for the full replicate count,
// interleaving replicates round-robin across workloads (w1r1, w2r1, …,
// w1r2, …) so a slow minute on the host cannot land on one workload
// alone. A replicate during which the reference kernel drifted by more
// than calibDrift is run again once.
func (rn *runner) runSet(plans []*plan, nreps int, logf func(string, ...any)) ([]*workloadRun, error) {
	runs := make([]*workloadRun, len(plans))
	for i, p := range plans {
		runs[i] = &workloadRun{plan: p}
	}
	for r := 0; r < nreps; r++ {
		for _, wr := range runs {
			rep, err := rn.runReplicate(wr.plan, nil)
			if err != nil {
				return nil, fmt.Errorf("%s replicate %d: %w", wr.plan.w.name, r+1, err)
			}
			if rep.drifted() {
				logf("%s replicate %d: calibration moved %.1f -> %.1f ms during the replicate; running it again",
					wr.plan.w.name, r+1, rep.calib[0], rep.calib[1])
				again, err := rn.runReplicate(wr.plan, nil)
				if err != nil {
					return nil, fmt.Errorf("%s replicate %d (rerun): %w", wr.plan.w.name, r+1, err)
				}
				again.reran = true
				// A failed op is a result, not noise: keep it visible.
				again.failed += rep.failed
				again.attempted += rep.failed
				again.failures = append(rep.failures, again.failures...)
				rep = again
			}
			wr.reps = append(wr.reps, rep)
			logf("%s replicate %d: setup %.2fs, %d ops in %.2fs (%.0f/s), %d failed, primary p50 %.3f ms, rss %.0f MB, calib %.1f/%.1f ms",
				wr.plan.w.name, r+1, rep.setupS, rep.attempted, rep.wallS, rep.opsPerS(),
				rep.failed, median(rep.latency[wr.plan.w.primary]), rep.rssPeakMB, rep.calib[0], rep.calib[1])
		}
	}
	return runs, nil
}

// metricsOf medians each end-to-end metric over the replicates; latency
// percentiles are taken per replicate first.
func (wr *workloadRun) metricsOf() map[string]float64 {
	per := map[string][]float64{}
	for _, rep := range wr.reps {
		for name, v := range rep.e2e(wr.plan.w.primary) {
			per[name] = append(per[name], v)
		}
	}
	out := make(map[string]float64, len(per))
	for name, vals := range per {
		out[name] = median(vals)
	}
	return out
}

func (wr *workloadRun) counts() (attempted, failed int, failures []string) {
	for _, rep := range wr.reps {
		attempted += rep.attempted
		failed += rep.failed
		failures = append(failures, rep.failures...)
	}
	return
}

// opStats summarizes one op kind across the replicates of a run.
type opStats struct {
	Samples int     `json:"samples"` // per replicate
	P50     float64 `json:"p50_ms"`
	Tail    float64 `json:"tail_ms"`
	TailPct float64 `json:"tail_percentile"`
}

func (wr *workloadRun) opStats() map[string]opStats {
	out := map[string]opStats{}
	kinds := map[string]bool{}
	for _, rep := range wr.reps {
		for k := range rep.latency {
			kinds[k] = true
		}
	}
	for k := range kinds {
		var p50s, tails []float64
		n := 0
		for _, rep := range wr.reps {
			s := sortedCopy(rep.latency[k])
			if len(s) == 0 {
				continue
			}
			n = len(s)
			p50s = append(p50s, percentile(s, 50))
			tails = append(tails, percentile(s, tailPercentile(len(s))))
		}
		out[k] = opStats{Samples: n, P50: median(p50s), Tail: median(tails), TailPct: tailPercentile(n)}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
