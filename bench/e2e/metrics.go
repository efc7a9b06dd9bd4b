package main

import (
	"context"
	"fmt"
	"path/filepath"

	"perftrack/internal/server"
)

// metricDef declares one metric of the benchmark. BENCHMARK.json lists
// exactly these (a test compares the two).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the median it may worsen by
}

// endToEnd lists the gated end-to-end metrics: the ones BENCHMARK.json
// declares with a bound and the result line of a timed run carries, each
// the median over the run's replicates.
//
// setup_s carries the widest bound the benchmark contract allows. It is a
// wall-clock time on a shared host and drifts with it (see timing below);
// the contract requires it, exempts its spread, and compares only the
// medians of two sets.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
	{"disk_bytes_per_ptdf_byte", "ratio", "lower", 0.02},
}

// timing lists the three time-derived end-to-end metrics. Every workload
// measures them and the report prints them, but they are not gated: on
// the shared 2-core reference host identical requests against an
// identical binary run 10-20% faster or slower from one minute to the
// next, the inter-quartile distance of ten runs is 12-33% of their
// median, two sets of byte-identical requests put their medians up to a
// fifth apart, and no estimator over the ops of one invocation (median,
// low quantiles, best blocks) brings the spread under a tenth. A bound that
// the benchmark cannot hold against itself gates nothing, so they carry
// none until -repeat shows them inside a tenth on the host in use; the
// traced run reports the same quantities per layer (client.ops_per_s.*,
// client.<op>.p50_ms, server.cpu_s_per_kop.*). README.md has the
// measurements. The Bound here is the tenth they must repeat within to
// be gated, which is what -repeat flags them against.
var timing = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.10},
	{"primary_p50_ms", "ms", "lower", 0.10},
	{"server_cpu_s_per_kop", "s", "lower", 0.10},
}

// cacheWorkloads are the two workloads whose cache hit ratios are
// reported side by side: the ratio should collapse on mixed_rw.
var cacheWorkloads = []string{wlQueryInteractive, wlMixedRW}

// perLayer lists the per-layer metrics of the traced run, layer by
// layer (a layer is a package under internal/).
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	for _, k := range opKinds {
		add("client."+k+".p50_ms", "ms", "lower")
		add("client."+k+".tail_ms", "ms", "lower")
	}
	for _, w := range workloads {
		add("client.ops_per_s."+w.name, "1/s", "higher")
	}
	add("client.http_overhead_ms", "ms", "lower")
	add("client.retries", "count", "lower")

	add("ptdf.decode_ms_per_doc", "ms", "lower")
	add("ptdf.decode_mb_per_s", "MB/s", "higher")

	add("datastore.stage_ms_per_doc", "ms", "lower")
	add("datastore.commit_ms_per_doc", "ms", "lower")
	add("datastore.wal_flushes_per_commit", "ratio", "lower")
	add("datastore.stats_refreshes_per_commit", "ratio", "lower")
	add("datastore.rollbacks", "count", "lower")
	add("datastore.prfilter_cold_ms", "ms", "lower")
	add("datastore.prfilter_hot_ms", "ms", "lower")
	for _, w := range cacheWorkloads {
		add("datastore.match_cache_hit_ratio."+w, "ratio", "higher")
	}
	add("datastore.attribute_keys_ms", "ms", "lower")
	add("datastore.materialize_ms_per_krow", "ms", "lower")
	add("datastore.focus_cache_hit_ratio", "ratio", "higher")

	add("reldb.compact_ms_per_krow", "ms", "lower")
	add("reldb.checkpoint_ms", "ms", "lower")
	add("reldb.reopen_ms", "ms", "lower")
	add("reldb.segments_written", "count", "lower")
	add("reldb.wal_bytes_per_ptdf_byte", "ratio", "lower")
	add("reldb.segment_bytes_per_krow", "bytes", "lower")
	add("reldb.resident_bytes_per_ptdf_byte", "ratio", "lower")
	add("reldb.tail_rows_end", "rows", "lower")
	add("reldb.zone_map_prunes_per_scan", "ratio", "higher")

	add("planner.sql_cold_ms", "ms", "lower")
	add("planner.plan_ms", "ms", "lower")
	add("planner.kernel_ms", "ms", "lower")
	add("planner.merge_ms", "ms", "lower")
	add("planner.rows_scanned_per_row_returned", "ratio", "lower")
	add("planner.tail_row_share", "ratio", "lower")
	for _, w := range cacheWorkloads {
		add("planner.plan_cache_hit_ratio."+w, "ratio", "higher")
	}
	add("planner.plan_cache_evictions", "count", "lower")
	add("sqldb.naive_sql_cold_ms", "ms", "lower")

	add("query.retrieve_ms_per_krow", "ms", "lower")
	add("compare.executions_ms", "ms", "lower")
	add("diagnose.run_ms", "ms", "lower")

	add("server.sql_cold_handler_ms", "ms", "lower")
	add("server.stream_exec_handler_ms", "ms", "lower")
	add("server.stream_encode_ms_per_krow", "ms", "lower")
	add("server.shed_total", "count", "lower")
	for _, w := range workloads {
		add("server.cpu_s_per_kop."+w.name, "s", "lower")
		add("server.gc_cycles_per_kop."+w.name, "count", "lower")
		add("server.gc_pause_ms_per_kop."+w.name, "ms", "lower")
	}

	add("obs.spans_per_op", "count", "lower")
	add("bench.trace_overhead_pct", "%", "lower")
	add("bench.calib_ms", "ms", "lower")
	return defs
}

// opSource names the workload whose traced replicate supplies an op
// kind's client-side latency.
var opSource = map[string]string{
	opLoadDoc: wlIngestBulk, opLoadSmall: wlMixedRW,
	opCountHot: wlQueryInteractive, opCountCold: wlQueryInteractive,
	opSQLHot: wlQueryInteractive, opSQLCold: wlQueryInteractive,
	opPage: wlQueryInteractive, opAttrs: wlQueryInteractive,
	opStreamExec: wlRetrieveBulk, opCompare: wlRetrieveBulk,
	opPageBig: wlRetrieveBulk, opDiagnose: wlRetrieveBulk,
}

// traceFraction: the traced run repeats each workload once at one
// replicate and this fraction of the op list.
const traceFraction = 4

// traceResult is the outcome of a traced run.
type traceResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	failures  []string
	shares    map[string]map[string]float64 // workload -> layer -> share of replayed time
	coverage  map[string]float64            // op kind -> share of the parent span its children cover
	calibs    []float64                     // reference kernel before and after every replicate
	tracePath string
}

// traceRun is the traced run: phase 1 drives every workload once with a
// client-side span per op and scrapes the server's counters around the
// measured list; phase 2 is the in-process layer replay. The timed runs
// carry none of this.
func (rn *runner) traceRun(seed int64, seconds int, outDir string, logf func(string, ...any)) (*traceResult, error) {
	res := &traceResult{metrics: map[string]float64{}, shares: map[string]map[string]float64{}, coverage: map[string]float64{}}
	m := res.metrics
	plans := map[string]*plan{}
	for _, w := range workloads {
		plans[w.name] = newPlan(w, rn.sz, seed, seconds, traceFraction)
	}

	// The untraced twin of the traced query_interactive replicate; the
	// difference between the two is what tracing costs.
	untraced, err := rn.runReplicate(plans[wlQueryInteractive], nil)
	if err != nil {
		return nil, fmt.Errorf("untraced %s: %w", wlQueryInteractive, err)
	}
	calibs := []float64{untraced.calib[0], untraced.calib[1]}

	tr := newTracer()
	rn.tr = tr
	defer func() { rn.tr = nil }()
	reps := map[string]*replicate{}
	for _, w := range workloads {
		root := tr.start(nil, "phase1."+w.name, "bench")
		rep, err := rn.runReplicate(plans[w.name], root)
		root.end()
		if err != nil {
			return nil, fmt.Errorf("traced %s: %w", w.name, err)
		}
		reps[w.name] = rep
		res.attempted += rep.attempted
		res.failed += rep.failed
		res.failures = append(res.failures, rep.failures...)
		calibs = append(calibs, rep.calib[0], rep.calib[1])
		logf("traced %s: %d ops in %.2fs, %d failed", w.name, rep.attempted, rep.wallS, rep.failed)
	}

	// --- phase 1 metrics ---
	for _, k := range opKinds {
		s := sortedCopy(reps[opSource[k]].latency[k])
		m["client."+k+".p50_ms"] = percentile(s, 50)
		m["client."+k+".tail_ms"] = percentile(s, tailPercentile(len(s)))
	}
	var retries, shed, evictions float64
	for _, w := range workloads {
		rep := reps[w.name]
		retries += float64(rep.retries)
		shed += rep.delta("ptserved_requests_shed_total")
		evictions += rep.delta("ptserved_plan_cache_evictions_total")
		kops := float64(max(rep.okOps(), 1)) / 1000
		m["client.ops_per_s."+w.name] = rep.opsPerS()
		m["server.cpu_s_per_kop."+w.name] = rep.cpuS / kops
		m["server.gc_cycles_per_kop."+w.name] = rep.delta("go_gc_cycles_total") / kops
		m["server.gc_pause_ms_per_kop."+w.name] = rep.delta("go_gc_pause_seconds_total") * 1000 / kops
	}
	m["client.retries"] = retries
	m["server.shed_total"] = shed
	m["planner.plan_cache_evictions"] = evictions
	m["client.http_overhead_ms"] = reps[wlQueryInteractive].healthP50
	for _, w := range cacheWorkloads {
		rep := reps[w]
		m["datastore.match_cache_hit_ratio."+w] = ratio(rep.delta("ptserved_query_cache_hits"), rep.delta("ptserved_query_cache_misses"))
		m["planner.plan_cache_hit_ratio."+w] = ratio(rep.delta("ptserved_plan_cache_hits_total"), rep.delta("ptserved_plan_cache_misses_total"))
	}
	ing, rb, mrw := reps[wlIngestBulk], reps[wlRetrieveBulk], reps[wlMixedRW]
	m["datastore.wal_flushes_per_commit"] = ing.delta("ptserved_store_wal_flushes_total") / max(ing.delta("ptserved_store_batch_commits_total"), 1)
	m["datastore.rollbacks"] = ing.delta("ptserved_store_batch_rollbacks_total") + mrw.delta("ptserved_store_batch_rollbacks_total")
	m["datastore.focus_cache_hit_ratio"] = ratio(rb.delta("ptserved_store_focus_cache_hits_total"), rb.delta("ptserved_store_focus_cache_misses_total"))
	m["reldb.zone_map_prunes_per_scan"] = rb.delta("ptserved_store_zone_map_prunes_total") / max(rb.delta("ptserved_store_segment_scans_total"), 1)
	eng := ing.after.stats.Storage.Engine
	m["reldb.wal_bytes_per_ptdf_byte"] = float64(eng.WALBytes) / float64(ing.ptdfBytes)
	m["reldb.resident_bytes_per_ptdf_byte"] = float64(eng.DataBytes+eng.IndexBytes) / float64(ing.ptdfBytes)
	if seg := ing.after.stats.Storage.Segments; seg != nil {
		m["reldb.segments_written"] = float64(seg.SegmentsWritten)
		for _, t := range seg.Tables {
			if t.Table == "performance_result" && t.Rows > 0 {
				m["reldb.segment_bytes_per_krow"] = float64(t.Bytes) / (float64(t.Rows) / 1000)
			}
		}
	}
	if seg := mrw.after.stats.Storage.Segments; seg != nil {
		for _, t := range seg.Tables {
			if t.Table == "performance_result" {
				m["reldb.tail_rows_end"] = float64(t.PendingRows)
			}
		}
	}
	if p := mrw.endProfile; p != nil && p.SegmentRows+p.TailRows > 0 {
		m["planner.tail_row_share"] = float64(p.TailRows) / float64(p.SegmentRows+p.TailRows)
	}
	qiRep := reps[wlQueryInteractive]
	m["obs.spans_per_op"] = qiRep.delta("ptserved_spans_total") / float64(max(qiRep.okOps(), 1))
	tracedRate, untracedRate := qiRep.opsPerS(), untraced.opsPerS()
	m["bench.trace_overhead_pct"] = (untracedRate - tracedRate) / untracedRate * 100
	m["bench.calib_ms"] = median(calibs)
	res.calibs = calibs

	// --- phase 2 ---
	root := tr.start(nil, "phase2.replay", "bench")
	rr, err := runReplay(seed, rn.sz.replayExecs, filepath.Join(rn.workDir, fmt.Sprintf("replay-%d", rn.seq.Add(1))))
	root.end()
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	var trees []*node
	for _, k := range opKinds {
		trees = append(trees, rr.trees[k])
		if bg := rr.background[k]; bg != nil {
			trees = append(trees, bg)
		}
		res.coverage[k] = rr.trees[k].covered()
	}
	tr.emit(root, trees)
	for name, v := range rr.metrics {
		m[name] = v
	}
	for _, w := range workloads {
		res.shares[w.name] = rr.layerShares(plans[w.name].measured)
	}
	res.tracePath = filepath.Join(outDir, "trace.json")
	if err := tr.write(res.tracePath); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedExtras takes the two measurements a traced replicate adds after
// its measured list: the loopback round trip of a request that does no
// work, and the execution profile of one more cold statement (how much
// of the scan was still in the uncompacted tail).
func (rn *runner) tracedExtras(rep *replicate, inst *instance, p *plan) error {
	cl := rn.newClient(inst.baseURL)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	var rtts []float64
	for i := 0; i < 200; i++ {
		d, err := timed(func() error { _, err := cl.Health(ctx); return err })
		if err != nil {
			return fmt.Errorf("measuring /healthz round trip: %w", err)
		}
		rtts = append(rtts, ms(d))
	}
	rep.healthP50 = median(rtts)
	if p.w.base {
		resp, err := cl.SQL(ctx, server.SQLRequest{SQL: p.probeSQL, Analyze: true})
		if err != nil {
			return fmt.Errorf("profiling a cold statement: %w", err)
		}
		if resp.Plan != nil {
			rep.endProfile = resp.Plan.Profile
		}
	}
	return nil
}
