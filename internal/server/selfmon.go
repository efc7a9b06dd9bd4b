package server

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"

	"perftrack/internal/obs"
	"perftrack/internal/obs/selfmon"
)

// This file wires the continuous self-diagnosis loop: the selfmon
// sampler snapshots the server's own telemetry on an interval, each
// snapshot becomes a PTdf execution in an in-memory side store, and
// GET /v1/debug/selfdiagnose runs internal/diagnose over the rolling
// baseline-vs-recent split. The cumulative snapshot behind
// /v1/debug/selfptdf shares the same Sample/WriteDoc path.

// hostname names the grid/machine resource in self-profiles.
func hostname() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		return "localhost"
	}
	return host
}

// selfSnapshot is the cumulative counter state one interval sample
// diffs against.
type selfSnapshot struct {
	routeCount map[string]uint64
	routeSum   map[string]float64
	slowTraces uint64
	shed       uint64
	planHits   uint64
	planMisses uint64
	generation uint64
}

func (s *Server) takeSelfSnapshot() selfSnapshot {
	snap := selfSnapshot{
		routeCount: make(map[string]uint64),
		routeSum:   make(map[string]float64),
		shed:       s.metrics.shed.Value(),
		generation: s.store.Generation(),
	}
	s.metrics.latency.Each(func(values []string, h *obs.Histogram) {
		snap.routeCount[values[0]] = h.Count()
		snap.routeSum[values[0]] = h.Sum()
	})
	_, _, slowN, _ := s.tracer.Stats()
	snap.slowTraces = slowN
	st := s.planCache.Stats()
	snap.planHits, snap.planMisses = st.Hits, st.Misses
	return snap
}

// collectSelfSample is the sampler's Collect hook: one interval sample
// of server behaviour. Time-like metrics are interval means (this
// window's requests only, so a latency shift shows up immediately
// instead of being averaged into history); operational attributes are
// numeric strings, joining the diagnosis engine's threshold-predicate
// space — a diagnosis can answer not just "recent samples are slower"
// but "...and they are exactly the samples where shed_delta >= 1".
func (s *Server) collectSelfSample() selfmon.Sample {
	cur := s.takeSelfSnapshot()
	prev := s.selfPrev
	s.selfPrev = cur

	var sm selfmon.Sample
	routes := make([]string, 0, len(cur.routeCount))
	for route := range cur.routeCount {
		routes = append(routes, route)
	}
	sort.Strings(routes)
	var dCount uint64
	var dSum float64
	for _, route := range routes {
		dc := cur.routeCount[route] - prev.routeCount[route]
		if dc == 0 {
			continue
		}
		ds := cur.routeSum[route] - prev.routeSum[route]
		sm.Metrics = append(sm.Metrics, selfmon.Metric{
			Name: route + " latency mean", Value: ds / float64(dc), Units: "seconds",
		})
		dCount += dc
		dSum += ds
	}
	if dCount > 0 {
		sm.Metrics = append(sm.Metrics, selfmon.Metric{
			Name: "request latency mean", Value: dSum / float64(dCount), Units: "seconds",
		})
	}
	sm.Metrics = append(sm.Metrics, selfmon.Metric{
		Name: "requests", Value: float64(dCount), Units: "requests",
	})

	attr := func(k, v string) { sm.Attrs = append(sm.Attrs, [2]string{k, v}) }
	attr("requests_delta", strconv.FormatUint(dCount, 10))
	attr("slow_traces_delta", strconv.FormatUint(cur.slowTraces-prev.slowTraces, 10))
	attr("shed_delta", strconv.FormatUint(cur.shed-prev.shed, 10))
	attr("plan_cache_hits_delta", strconv.FormatUint(cur.planHits-prev.planHits, 10))
	attr("plan_cache_misses_delta", strconv.FormatUint(cur.planMisses-prev.planMisses, 10))
	attr("in_flight", strconv.FormatInt(int64(s.metrics.inFlight.Value()), 10))
	attr("goroutines", strconv.Itoa(runtime.NumGoroutine()))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	attr("heap_mb", strconv.FormatUint(ms.HeapAlloc>>20, 10))
	attr("store_generation", strconv.FormatUint(cur.generation, 10))
	return sm
}

// selfPTdfSample snapshots cumulative telemetry: the per-route latency
// distributions, store counters, and tracer totals that
// /v1/debug/selfptdf has always exported.
func (s *Server) selfPTdfSample() selfmon.Sample {
	var sm selfmon.Sample
	add := func(name string, v float64, units string) {
		sm.Metrics = append(sm.Metrics, selfmon.Metric{Name: name, Value: v, Units: units})
	}

	s.metrics.latency.Each(func(values []string, h *obs.Histogram) {
		route := values[0]
		if h.Count() == 0 {
			return
		}
		add(route+" requests", float64(h.Count()), "requests")
		add(route+" latency sum", h.Sum(), "seconds")
		for _, q := range []struct {
			name string
			q    float64
		}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
			add(route+" latency "+q.name, h.Quantile(q.q), "seconds")
		}
	})

	tel := s.store.Telemetry()
	add("batch commits", float64(tel.BatchCommits), "batches")
	add("batch rollbacks", float64(tel.BatchRollbacks), "batches")
	add("wal flushes", float64(tel.WALFlushes), "flushes")
	add("records loaded", float64(tel.RecordsLoaded), "records")
	qs := s.store.QueryEngineStats()
	add("match cache hits", float64(qs.CacheHits), "hits")
	add("match cache misses", float64(qs.CacheMisses), "misses")
	add("focus cache hits", float64(tel.FocusCacheHits), "hits")
	add("focus cache misses", float64(tel.FocusCacheMisses), "misses")
	add("materializations", float64(tel.Materializations), "chunks")
	add("results read", float64(tel.ResultsRead), "results")

	started, completed, slowN, spans := s.tracer.Stats()
	add("traces started", float64(started), "traces")
	add("traces completed", float64(completed), "traces")
	add("traces slow", float64(slowN), "traces")
	add("spans recorded", float64(spans), "spans")
	return sm
}

// buildSelfMonitor constructs the sampler over the server's telemetry.
func (s *Server) buildSelfMonitor() error {
	sm, err := selfmon.New(selfmon.Config{
		App:      "ptserved",
		Host:     hostname(),
		Interval: s.cfg.SelfMonInterval,
		Window:   selfMonWindow,
		Collect:  s.collectSelfSample,
		OnError:  func(err error) { s.log.Warn("selfmon sample", "err", err) },
	})
	if err != nil {
		return fmt.Errorf("server: self-monitor: %w", err)
	}
	s.selfmon = sm
	s.metrics.reg.CounterFunc("ptserved_selfmon_samples_total",
		"Self-monitor telemetry samples taken.",
		func() uint64 { return sm.Stats().Samples })
	s.metrics.reg.CounterFunc("ptserved_selfmon_errors_total",
		"Self-monitor samples that failed to serialize or load.",
		func() uint64 { return sm.Stats().Errors })
	s.metrics.reg.GaugeFunc("ptserved_selfmon_retained_samples",
		"Samples resident in the self-monitor's side store window.",
		func() float64 { return float64(sm.Stats().Retained) })
	return nil
}
