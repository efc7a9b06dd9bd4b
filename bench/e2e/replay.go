package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"time"

	"perftrack/bench/e2e/corpus"
	"perftrack/internal/compare"
	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/diagnose"
	"perftrack/internal/planner"
	"perftrack/internal/ptdf"
	"perftrack/internal/query"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

// The layer replay (phase 2 of the traced run) opens a segment engine
// and a store in this process and times calls into each layer's public
// functions on the same generated inputs the workloads send. Every op
// is replayed as its real handler, through Server.Handler(), and then
// as the direct calls that handler makes into the layers below; the
// handler's span minus those calls is the service layer's own time
// (decoding, middleware, encoding). Nothing inside the program is
// instrumented for this, and nothing the handlers do is re-implemented
// here. The price is that parent and children are separate executions:
// a child can cost more alone than it did inside the handler, so the
// children's share of a parent is reported as measured, above 1 when
// that happens, and is an estimate either way.

// Layers of the budget. Write-path layers and query-engine layers are
// the two groups the workloads are designed to isolate.
const (
	layerPTdf        = "ptdf"
	layerWrite       = "datastore.write"
	layerReldb       = "reldb"
	layerFilter      = "datastore.filter"
	layerMatchCache  = "datastore.prfilter"
	layerScan        = "datastore.scan"
	layerPlanner     = "planner"
	layerMaterialize = "datastore.materialize"
	layerAttributes  = "datastore.attributes"
	layerQuery       = "query"
	layerCompare     = "compare"
	layerDiagnose    = "diagnose"
	layerServer      = "server"
)

var writeLayers = map[string]bool{layerPTdf: true, layerWrite: true, layerReldb: true}
var engineLayers = map[string]bool{layerPlanner: true, layerMatchCache: true, layerFilter: true}

// node is one replayed call and the calls made on its behalf.
type node struct {
	name, layer string
	dur         time.Duration
	children    []*node
}

// self is the node's duration minus the part its children cover.
func (n *node) self() time.Duration {
	d := n.dur
	for _, c := range n.children {
		d -= c.dur
	}
	return max(d, 0)
}

// covered is the children's summed duration as a share of the node's
// own. It is not capped: above 1 the children, timed by separate calls,
// took longer than the parent that contains them.
func (n *node) covered() float64 {
	if n.dur <= 0 {
		return 0
	}
	sum := time.Duration(0)
	for _, c := range n.children {
		sum += c.dur
	}
	return float64(sum) / float64(n.dur)
}

func (n *node) find(name string) *node {
	if n.name == name {
		return n
	}
	for _, c := range n.children {
		if f := c.find(name); f != nil {
			return f
		}
	}
	return nil
}

func (n *node) addSelf(into map[string]time.Duration) {
	into[n.layer] += n.self()
	for _, c := range n.children {
		c.addSelf(into)
	}
}

// medianTree merges same-shaped trees into one whose durations are the
// per-node medians.
func medianTree(trees []*node) *node {
	durs := make([]float64, len(trees))
	for i, t := range trees {
		durs[i] = float64(t.dur)
	}
	out := &node{name: trees[0].name, layer: trees[0].layer, dur: time.Duration(median(durs))}
	for c := range trees[0].children {
		sub := make([]*node, len(trees))
		for i, t := range trees {
			sub[i] = t.children[c]
		}
		out.children = append(out.children, medianTree(sub))
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

type replay struct {
	ctx     context.Context
	c       *corpus.Corpus
	g       *opGen
	dir     string
	eng     reldb.Engine
	fe      *reldb.FileEngine
	store   *datastore.Store
	handler http.Handler
}

// open (re)opens the segment engine, the store and the service layer on
// the replay directory.
func (r *replay) open() error {
	eng, err := reldb.Open(reldb.KindSegment, r.dir)
	if err != nil {
		return err
	}
	fe, ok := eng.(*reldb.FileEngine)
	if !ok {
		eng.Close()
		return fmt.Errorf("segment engine is %T, want *reldb.FileEngine", eng)
	}
	// Compaction is timed as its own span, so the background compactor
	// must never get to a tail before the replay does.
	fe.SetSegmentFlushRows(1 << 40)
	store, err := datastore.Open(eng)
	if err != nil {
		eng.Close()
		return err
	}
	srv, err := server.New(server.Config{Store: store, SelfMonInterval: -1})
	if err != nil {
		eng.Close()
		return err
	}
	r.eng, r.fe, r.store, r.handler = eng, fe, store, srv.Handler()
	return nil
}

// timed runs f and returns how long it took.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// serve sends one request through the real handler stack and returns
// its wall time and body.
func (r *replay) serve(method, target string, body any) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, target, rd)
	rec := httptest.NewRecorder()
	d, _ := timed(func() error { r.handler.ServeHTTP(rec, req); return nil })
	if rec.Code != http.StatusOK {
		return d, nil, fmt.Errorf("%s %s: status %d: %s", method, target, rec.Code, rec.Body.String())
	}
	return d, rec.Body.Bytes(), nil
}

// loadHandler replays one /v1/load through the real handler.
func (r *replay) loadHandler(doc []byte) (time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, "/v1/load", bytes.NewReader(doc))
	rec := httptest.NewRecorder()
	d, _ := timed(func() error { r.handler.ServeHTTP(rec, req); return nil })
	if rec.Code != http.StatusOK {
		return d, fmt.Errorf("POST /v1/load: status %d: %s", rec.Code, rec.Body.String())
	}
	return d, nil
}

// loadDirect loads one document as the calls LoadPTdfCtx makes, one phase
// at a time so each layer gets its own span. LoadPTdfCtx stages each
// record as it is decoded; here the decoded records wait in a slice sized
// before the clock starts (a PTdf record is one line), so that decoding
// is not charged for growing it.
func (r *replay) loadDirect(doc []byte) (decode, stage, commit time.Duration, err error) {
	recs := make([]ptdf.Record, 0, bytes.Count(doc, []byte("\n"))+1)
	decode, err = timed(func() error {
		pr := ptdf.NewReader(bytes.NewReader(doc))
		for {
			rec, err := pr.Next()
			if err == io.EOF {
				return nil
			}
			if err != nil {
				return err
			}
			recs = append(recs, rec)
		}
	})
	if err != nil {
		return
	}
	batch := r.store.NewBatch()
	stage, _ = timed(func() error {
		for _, rec := range recs {
			batch.Stage(rec)
		}
		return nil
	})
	commit, err = timed(func() error { _, err := batch.CommitCtx(r.ctx); return err })
	return
}

// viaHandler says which of a load replay's documents go through the
// handler: 0 and 3 of every four.
func viaHandler(i int) bool { return i%4 == 0 || i%4 == 3 }

// loads replays a load op over the given documents, which must all be
// of one shape. A document can be loaded once, so parent and children
// come from different documents: in every four, the outer two go through
// the /v1/load handler (the parent span) and the inner two through the
// direct calls (its children), so both see the store at the same sizes
// on average. Every load is followed by a compaction of the tail its
// commit left, which is what the background compactor does after the
// ack.
func (r *replay) loads(name string, docs [][]byte) (load, compact *node, err error) {
	var handler, decode, stage, commit, compacts []float64
	for i, doc := range docs {
		if viaHandler(i) {
			d, err := r.loadHandler(doc)
			if err != nil {
				return nil, nil, err
			}
			handler = append(handler, float64(d))
		} else {
			dd, ds, dc, err := r.loadDirect(doc)
			if err != nil {
				return nil, nil, err
			}
			decode, stage, commit = append(decode, float64(dd)), append(stage, float64(ds)), append(commit, float64(dc))
		}
		d, err := timed(r.fe.CompactSegments)
		if err != nil {
			return nil, nil, err
		}
		compacts = append(compacts, float64(d))
	}
	med := func(v []float64) time.Duration { return time.Duration(median(v)) }
	load = &node{name: name, layer: layerServer, dur: med(handler), children: []*node{
		{name: "ptdf.decode", layer: layerPTdf, dur: med(decode)},
		{name: "datastore.stage", layer: layerWrite, dur: med(stage)},
		{name: "datastore.commit", layer: layerWrite, dur: med(commit)},
	}}
	return load, &node{name: "reldb.compact", layer: layerReldb, dur: med(compacts)}, nil
}

// families applies each spec and returns the pr-filter, as the server's
// handlers do before counting or retrieving.
func (r *replay) families(specs []string) (core.PRFilter, time.Duration, error) {
	var prf core.PRFilter
	d, err := timed(func() error {
		for _, spec := range specs {
			rf, err := query.ParseFilterSpec(spec)
			if err != nil {
				return err
			}
			fam, err := r.store.ApplyFilterCtx(r.ctx, rf)
			if err != nil {
				return err
			}
			prf.Families = append(prf.Families, fam)
		}
		return nil
	})
	return prf, d, err
}

func (r *replay) counts(prf core.PRFilter) (time.Duration, error) {
	return timed(func() error {
		for _, fam := range prf.Families {
			if _, err := r.store.CountFamilyMatchesCtx(r.ctx, fam); err != nil {
				return err
			}
		}
		_, err := r.store.CountMatchesCtx(r.ctx, prf)
		return err
	})
}

// count replays /v1/query. Cold drops the match cache before the handler
// and again before the direct calls, so both pay the full evaluation.
func (r *replay) count(name string, specs []string, cold bool) (*node, error) {
	if cold {
		r.store.InvalidateQueryCache()
	}
	dHandler, _, err := r.serve(http.MethodPost, "/v1/query", server.QueryRequest{Families: specs})
	if err != nil {
		return nil, err
	}
	if cold {
		r.store.InvalidateQueryCache()
	}
	prf, dFilter, err := r.families(specs)
	if err != nil {
		return nil, err
	}
	dCount, err := r.counts(prf)
	if err != nil {
		return nil, err
	}
	return &node{name: name, layer: layerServer, dur: dHandler, children: []*node{
		{name: "datastore.apply_filter", layer: layerFilter, dur: dFilter},
		{name: "datastore.prfilter", layer: layerMatchCache, dur: dCount},
	}}, nil
}

// sql replays /v1/sql: the handler on one statement, then the planner
// directly on another of the same shape (so
// the second call does not run on data the first left in the CPU cache).
// With a cache both statements must already be in it (the hot path);
// without, the planner executes and its profile splits the call into
// plan, kernel and merge.
func (r *replay) sql(name, handlerStmt, directStmt string, cache *planner.ResultCache) (*node, *planner.ExecProfileWire, error) {
	dHandler, _, err := r.serve(http.MethodPost, "/v1/sql", server.SQLRequest{SQL: handlerStmt})
	if err != nil {
		return nil, nil, err
	}
	pl := planner.New(r.store)
	pl.Cache = cache
	var plan *planner.Plan
	dQuery, err := timed(func() error {
		var err error
		_, plan, err = pl.Query(r.ctx, directStmt)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	q := &node{name: "planner.query", layer: layerPlanner, dur: dQuery}
	prof := plan.ProfileWire()
	if cache == nil && prof != nil {
		q.children = []*node{
			{name: "planner.plan", layer: layerPlanner, dur: time.Duration(prof.PlanNanos)},
			{name: "planner.kernel", layer: layerPlanner, dur: time.Duration(prof.KernelNanos)},
			{name: "planner.merge", layer: layerPlanner, dur: time.Duration(prof.MergeNanos)},
		}
	}
	return &node{name: name, layer: layerServer, dur: dHandler, children: []*node{q}}, prof, nil
}

// page replays the buffered /v1/results: filter application and the
// per-family counts in the handler, then query.Retrieve (pr-filter
// evaluation, materialization, table assembly) and added columns.
func (r *replay) page(name string, req server.ResultsRequest) (*node, error) {
	dHandler, _, err := r.serve(http.MethodPost, "/v1/results", req)
	if err != nil {
		return nil, err
	}
	prf, dFilter, err := r.families(req.Families)
	if err != nil {
		return nil, err
	}
	var tbl *query.Table
	dRetrieve, err := timed(func() error {
		var err error
		tbl, err = query.RetrieveCtx(r.ctx, r.store, prf)
		return err
	})
	if err != nil {
		return nil, err
	}
	var ids []int64
	dMatch, err := timed(func() error {
		var err error
		ids, err = r.store.MatchingResultIDsCtx(r.ctx, prf)
		return err
	})
	if err != nil {
		return nil, err
	}
	dMat, err := timed(func() error { _, err := r.store.MaterializeResultsCtx(r.ctx, ids); return err })
	if err != nil {
		return nil, err
	}
	dCols, err := timed(func() error {
		for _, col := range req.AddColumns {
			if err := tbl.AddColumn(core.TypePath(col), false); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &node{name: name, layer: layerServer, dur: dHandler, children: []*node{
		{name: "datastore.apply_filter", layer: layerFilter, dur: dFilter},
		{name: "query.retrieve", layer: layerQuery, dur: dRetrieve, children: []*node{
			{name: "datastore.prfilter", layer: layerMatchCache, dur: dMatch},
			{name: "datastore.materialize", layer: layerMaterialize, dur: dMat},
		}},
		{name: "query.add_columns", layer: layerQuery, dur: dCols},
	}}, nil
}

func (r *replay) attrs(prefix string) (*node, error) {
	dHandler, _, err := r.serve(http.MethodGet, "/v1/attributes?prefix="+url.QueryEscape(prefix), nil)
	if err != nil {
		return nil, err
	}
	dKeys, err := timed(func() error { _, err := r.store.AttributeKeys(prefix); return err })
	if err != nil {
		return nil, err
	}
	return &node{name: "replay." + opAttrs, layer: layerServer, dur: dHandler, children: []*node{
		{name: "datastore.attribute_keys", layer: layerAttributes, dur: dKeys},
	}}, nil
}

// streamExec replays /v1/results?stream=1 of one execution: the two ID
// lists the handler asks the store for (every result matching the empty
// pr-filter, and the execution's own) and the chunked materialization of
// their intersection. What is left of the handler's span is the server's
// own work: intersecting the lists and encoding 4096 NDJSON lines.
func (r *replay) streamExec(exec string) (*node, error) {
	dHandler, body, err := r.serve(http.MethodPost, "/v1/results?stream=1",
		server.ResultsRequest{Select: &server.Selection{Execution: exec}})
	if err != nil {
		return nil, err
	}
	if lines := bytes.Count(body, []byte("\n")); lines != corpus.Full.Results()+2 {
		return nil, fmt.Errorf("replayed stream of %s has %d lines, want %d", exec, lines, corpus.Full.Results()+2)
	}
	var own []int64
	dSelect, err := timed(func() error {
		if _, err := r.store.MatchingResultIDsCtx(r.ctx, core.PRFilter{}); err != nil {
			return err
		}
		var err error
		own, err = r.store.ExecutionResultIDs(exec)
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(own) != corpus.Full.Results() {
		return nil, fmt.Errorf("execution %s has %d result IDs, want %d", exec, len(own), corpus.Full.Results())
	}
	// Every result of the execution matches the empty pr-filter, so the
	// intersection the handler materializes is the execution's own list.
	dMat, err := timed(func() error {
		return r.store.MaterializeStreamCtx(r.ctx, own, datastore.MaterializeOptions{ChunkSize: 2048},
			func([]*core.PerformanceResult) error { return nil })
	})
	if err != nil {
		return nil, err
	}
	return &node{name: "replay." + opStreamExec, layer: layerServer, dur: dHandler, children: []*node{
		{name: "datastore.select_ids", layer: layerScan, dur: dSelect},
		{name: "datastore.materialize", layer: layerMaterialize, dur: dMat},
	}}, nil
}

func (r *replay) compare(a, b string) (*node, error) {
	dHandler, _, err := r.serve(http.MethodGet, "/v1/compare?a="+url.QueryEscape(a)+"&b="+url.QueryEscape(b), nil)
	if err != nil {
		return nil, err
	}
	dCmp, err := timed(func() error { _, err := compare.Executions(r.store, a, b); return err })
	if err != nil {
		return nil, err
	}
	return &node{name: "replay." + opCompare, layer: layerServer, dur: dHandler, children: []*node{
		{name: "compare.executions", layer: layerCompare, dur: dCmp},
	}}, nil
}

func (r *replay) diagnose() (*node, error) {
	req := server.DiagnoseRequest{
		FamiliesA: []string{r.c.FamAttr("compiler", "-O2").Spec},
		FamiliesB: []string{r.c.FamAttr("compiler", "-O0").Spec},
	}
	dHandler, _, err := r.serve(http.MethodPost, "/v1/diagnose", req)
	if err != nil {
		return nil, err
	}
	spec, err := req.Spec()
	if err != nil {
		return nil, err
	}
	dRun, err := timed(func() error { _, err := diagnose.Run(r.ctx, r.store, spec); return err })
	if err != nil {
		return nil, err
	}
	return &node{name: "replay." + opDiagnose, layer: layerServer, dur: dHandler, children: []*node{
		{name: "diagnose.run", layer: layerDiagnose, dur: dRun},
	}}, nil
}

// replaySmallDocs is how many doc_small loads the replay times: half
// through the handler, half through the direct calls.
const replaySmallDocs = 8

// replayResult is what phase 2 hands to the report: one median tree per
// op kind (plus the background work a load causes) and the stand-alone
// measurements.
type replayResult struct {
	trees      map[string]*node   // by op kind
	background map[string]*node   // by op kind: work the op causes after its reply
	metrics    map[string]float64 // per-layer metrics measured here
	execs      int
}

// repeat runs f n times and returns the median tree.
func repeat(n int, f func(i int) (*node, error)) (*node, error) {
	trees := make([]*node, 0, n)
	for i := 0; i < n; i++ {
		t, err := f(i)
		if err != nil {
			return nil, err
		}
		trees = append(trees, t)
	}
	return medianTree(trees), nil
}

// runReplay executes phase 2 in dir (created and removed here).
func runReplay(seed int64, execs int, dir string) (*replayResult, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if execs < 2 {
		return nil, fmt.Errorf("the layer replay needs at least 2 executions (one load through the handler, one through the direct calls), got %d", execs)
	}
	c := corpus.Generate(seed, execs)
	r := &replay{ctx: context.Background(), c: c, g: newOpGen(c, seed), dir: dir}
	if err := r.open(); err != nil {
		return nil, err
	}
	defer func() { r.eng.Close() }() // r.eng is replaced by the reopen
	res := &replayResult{trees: map[string]*node{}, background: map[string]*node{}, metrics: map[string]float64{}, execs: execs}
	m := res.metrics

	if _, err := r.store.LoadPTdf(bytes.NewReader(corpus.SharedDoc())); err != nil {
		return nil, err
	}

	// --- write path ---
	tel0 := r.store.Telemetry()
	docs := make([][]byte, execs)
	docBytes := 0
	for i := range docs {
		docs[i] = c.ExecDoc(i)
		docBytes += len(docs[i])
	}
	var err error
	if res.trees[opLoadDoc], res.background[opLoadDoc], err = r.loads("replay."+opLoadDoc, docs); err != nil {
		return nil, err
	}
	tel1 := r.store.Telemetry()
	ld := res.trees[opLoadDoc]
	m["ptdf.decode_ms_per_doc"] = ms(ld.find("ptdf.decode").dur)
	m["ptdf.decode_mb_per_s"] = float64(docBytes) / float64(execs) / 1e6 / ld.find("ptdf.decode").dur.Seconds()
	m["datastore.stage_ms_per_doc"] = ms(ld.find("datastore.stage").dur)
	m["datastore.commit_ms_per_doc"] = ms(ld.find("datastore.commit").dur)
	commits := float64(tel1.BatchCommits - tel0.BatchCommits)
	m["datastore.stats_refreshes_per_commit"] = float64(tel1.StatsRefreshes-tel0.StatsRefreshes) / commits
	m["reldb.compact_ms_per_krow"] = ms(res.background[opLoadDoc].dur) / (float64(corpus.Full.Results()) / 1000)

	smalls := make([][]byte, replaySmallDocs)
	for i := range smalls {
		smalls[i] = c.SmallDoc(i)
	}
	if res.trees[opLoadSmall], res.background[opLoadSmall], err = r.loads("replay."+opLoadSmall, smalls); err != nil {
		return nil, err
	}

	d, err := timed(r.fe.Checkpoint)
	if err != nil {
		return nil, err
	}
	m["reldb.checkpoint_ms"] = ms(d)
	d, err = timed(func() error {
		if err := r.eng.Close(); err != nil {
			return err
		}
		return r.open()
	})
	if err != nil {
		return nil, err
	}
	m["reldb.reopen_ms"] = ms(d)
	if got, want := r.store.Stats().Results, int64(execs*corpus.Full.Results()+replaySmallDocs*corpus.Small.Results()); got != want {
		return nil, fmt.Errorf("replay store reopened with %d results, want %d", got, want)
	}

	// --- pr-filter engine ---
	if res.trees[opCountCold], err = repeat(30, func(int) (*node, error) {
		return r.count("replay."+opCountCold, specs(r.g.coldFamilies()), true)
	}); err != nil {
		return nil, err
	}
	hot := specs(r.g.hotCount[0])
	if _, err := r.count("warm", hot, false); err != nil {
		return nil, err
	}
	if res.trees[opCountHot], err = repeat(40, func(int) (*node, error) {
		return r.count("replay."+opCountHot, hot, false)
	}); err != nil {
		return nil, err
	}
	m["datastore.prfilter_cold_ms"] = ms(res.trees[opCountCold].find("datastore.prfilter").dur)
	m["datastore.prfilter_hot_ms"] = ms(res.trees[opCountHot].find("datastore.prfilter").dur)
	if res.trees[opAttrs], err = repeat(30, func(int) (*node, error) { return r.attrs("compiler") }); err != nil {
		return nil, err
	}
	m["datastore.attribute_keys_ms"] = ms(res.trees[opAttrs].find("datastore.attribute_keys").dur)

	// --- planner ---
	cache := planner.NewResultCache(0)
	hotStmt := r.g.hotSQL[0].text
	if _, _, err := r.sql("warm", hotStmt, hotStmt, cache); err != nil {
		return nil, err
	}
	if res.trees[opSQLHot], err = repeat(40, func(int) (*node, error) {
		t, _, err := r.sql("replay."+opSQLHot, hotStmt, hotStmt, cache)
		return t, err
	}); err != nil {
		return nil, err
	}
	var scanned, returned float64
	var naive []float64
	if res.trees[opSQLCold], err = repeat(30, func(i int) (*node, error) {
		stmt := r.g.coldSQL().text
		t, prof, err := r.sql("replay."+opSQLCold, r.g.coldSQL().text, stmt, nil)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			scanned += float64(prof.RowsScanned)
			returned += float64(prof.RowsReturned)
		}
		if i < 3 { // the unoptimised executor is slow; three samples do
			pl := planner.New(r.store)
			pl.Naive = true
			d, err := timed(func() error { _, _, err := pl.Query(r.ctx, stmt); return err })
			if err != nil {
				return nil, err
			}
			naive = append(naive, ms(d))
		}
		return t, nil
	}); err != nil {
		return nil, err
	}
	sc := res.trees[opSQLCold]
	m["planner.sql_cold_ms"] = ms(sc.find("planner.query").dur)
	m["planner.plan_ms"] = ms(sc.find("planner.plan").dur)
	m["planner.kernel_ms"] = ms(sc.find("planner.kernel").dur)
	m["planner.merge_ms"] = ms(sc.find("planner.merge").dur)
	m["planner.rows_scanned_per_row_returned"] = scanned / max(returned, 1)
	m["sqldb.naive_sql_cold_ms"] = median(naive)
	m["server.sql_cold_handler_ms"] = ms(sc.dur)

	// --- retrieval ---
	pageReq := server.ResultsRequest{Families: specs(r.g.pages[0]), Limit: 200}
	if res.trees[opPage], err = repeat(20, func(int) (*node, error) { return r.page("replay."+opPage, pageReq) }); err != nil {
		return nil, err
	}
	bigReq := server.ResultsRequest{Families: specs([]corpus.Family{c.FamExec(0)}), Limit: 2000,
		AddColumns: []string{"execution/process", "build/module/function"}}
	if res.trees[opPageBig], err = repeat(10, func(int) (*node, error) { return r.page("replay."+opPageBig, bigReq) }); err != nil {
		return nil, err
	}
	krows := float64(corpus.Full.Results()) / 1000
	m["query.retrieve_ms_per_krow"] = ms(res.trees[opPageBig].find("query.retrieve").dur) / krows
	m["datastore.materialize_ms_per_krow"] = ms(res.trees[opPageBig].find("datastore.materialize").dur) / krows
	if res.trees[opStreamExec], err = repeat(15, func(i int) (*node, error) { return r.streamExec(c.Execs[i%execs].Name) }); err != nil {
		return nil, err
	}
	se := res.trees[opStreamExec]
	m["server.stream_exec_handler_ms"] = ms(se.dur)
	m["server.stream_encode_ms_per_krow"] = ms(se.self()) / krows
	if res.trees[opCompare], err = repeat(11, func(i int) (*node, error) {
		return r.compare(c.Execs[i%execs].Name, c.Execs[(i+1)%execs].Name)
	}); err != nil {
		return nil, err
	}
	m["compare.executions_ms"] = ms(res.trees[opCompare].find("compare.executions").dur)
	if res.trees[opDiagnose], err = repeat(5, func(int) (*node, error) { return r.diagnose() }); err != nil {
		return nil, err
	}
	m["diagnose.run_ms"] = ms(res.trees[opDiagnose].find("diagnose.run").dur)
	return res, nil
}

// emit writes median trees into the trace as synthetic spans laid out
// back to back: the trees one after another under root, each node's
// children one after another inside it.
func (t *tracer) emit(root *span, trees []*node) {
	var place func(parent *span, n *node, offset time.Duration)
	place = func(parent *span, n *node, offset time.Duration) {
		s := t.add(parent, n.name, n.layer, offset, n.dur)
		s.Attrs = map[string]string{"self_ms": fmt.Sprintf("%.4f", ms(n.self()))}
		inner := time.Duration(0)
		for _, c := range n.children {
			place(s, c, inner)
			inner += c.dur
		}
	}
	offset := time.Duration(0)
	for _, n := range trees {
		place(root, n, offset)
		offset += n.dur
	}
}

// layerShares weights each op kind's replayed self times by how often
// the workload's measured list holds the kind, and returns each layer's
// share of the total.
func (res *replayResult) layerShares(list []op) map[string]float64 {
	byLayer := map[string]time.Duration{}
	for _, o := range list {
		if t := res.trees[o.kind]; t != nil {
			t.addSelf(byLayer)
		}
		if t := res.background[o.kind]; t != nil {
			t.addSelf(byLayer)
		}
	}
	total := time.Duration(0)
	for _, d := range byLayer {
		total += d
	}
	out := make(map[string]float64, len(byLayer))
	for l, d := range byLayer {
		out[l] = float64(d) / float64(max(total, 1))
	}
	return out
}
