package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/gen"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// timedCorpus seeds an in-memory store with a diagnosis fleet whose
// executions each also hold procs×metrics results, one per process and
// metric, so every timed route has real work to do.
func timedCorpus(t testing.TB, execs, procs, metrics int) (*datastore.Store, *gen.Fleet) {
	t.Helper()
	fleet, err := gen.FleetRecords(gen.FleetSpec{Execs: execs, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	batch := store.NewBatch()
	for _, rec := range fleet.Records {
		batch.Stage(rec)
	}
	for _, exec := range append(append([]string(nil), fleet.Fast...), fleet.Slow...) {
		for p := range procs {
			proc := core.ResourceName(fmt.Sprintf("/%s/p%d", exec, p))
			batch.Stage(ptdf.ResourceRec{Name: proc, Type: "execution/process", Exec: exec})
			for m := range metrics {
				batch.Stage(ptdf.PerfResultRec{
					Exec: exec, Tool: "gen", Units: "seconds",
					Sets:   []ptdf.ResourceSet{{Names: []core.ResourceName{proc}, Type: core.FocusPrimary}},
					Metric: fmt.Sprintf("metric-%d", m), Value: float64(p*metrics + m),
				})
			}
		}
	}
	if _, err := batch.CommitCtx(context.Background()); err != nil {
		t.Fatal(err)
	}
	return store, fleet
}

// serve runs one request through srv's handler, tagged rid, and returns
// the reply and how long it took.
func serve(srv *Server, method, target, body, rid string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	req.Header.Set("X-Request-Id", rid)
	rec := httptest.NewRecorder()
	start := time.Now()
	srv.Handler().ServeHTTP(rec, req)
	return rec, time.Since(start)
}

// timeoutEnvelope is the exact reply to a request whose deadline passed.
func timeoutEnvelope(rid string) string {
	return "{\n  \"api_version\": \"v1\",\n  \"error\": \"request timed out\",\n  \"request_id\": \"" + rid + "\"\n}\n"
}

// TestTimeoutPromptOnEveryTimedRoute gives each request a deadline at a
// tenth of its untimed run: a cold count, a comparison, a diagnosis and
// a raw-sql join each answer the timeout envelope within one tick of the
// deadline, because every path under it checks ctx as it works.
func TestTimeoutPromptOnEveryTimedRoute(t *testing.T) {
	store, fleet := timedCorpus(t, 40, 64, 24)
	untimed, err := New(Config{Store: store, SelfMonInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	bumps := 0
	bump := func() {
		bumps++
		batch := store.NewBatch()
		batch.Stage(ptdf.ApplicationRec{Name: fmt.Sprintf("bump-%d", bumps)})
		if _, err := batch.CommitCtx(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	diag := fmt.Sprintf(`{"execs_a":["%s"],"execs_b":["%s"]}`, strings.Join(fleet.Fast, `","`), strings.Join(fleet.Slow, `","`))
	for i, c := range []struct{ method, target, body string }{
		{"POST", "/v1/query", `{"families":["type=execution/process","type=execution"]}`},
		{"GET", "/v1/compare?a=" + fleet.Fast[0] + "&b=" + fleet.Slow[0], ""},
		{"POST", "/v1/diagnose", diag},
		{"POST", "/v1/sql", `{"sql":"SELECT count(*) FROM resource_item a JOIN metric b ON a.id < b.id - 1000000"}`},
	} {
		// Each run follows a commit, which moves the store to a new
		// generation, so none finds the cached work of the one before.
		// The first untimed run also builds what outlives generations
		// (index permutations, dictionary views); the second sets the
		// deadline.
		var run time.Duration
		for range 2 {
			bump()
			var rec *httptest.ResponseRecorder
			if rec, run = serve(untimed, c.method, c.target, c.body, "untimed"); rec.Code != http.StatusOK {
				t.Fatalf("%s untimed: status %d: %s", c.target, rec.Code, rec.Body)
			}
		}
		bump()
		timeout := run / 10
		timed, err := New(Config{Store: store, RequestTimeout: timeout, SelfMonInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		rid := fmt.Sprintf("req-%d", i)
		rec, took := serve(timed, c.method, c.target, c.body, rid)
		if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutEnvelope(rid) {
			t.Errorf("%s under a %v deadline (untimed %v): status %d, body %s", c.target, timeout, run, rec.Code, rec.Body)
		}
		if late := took - timeout; late > 250*time.Millisecond {
			t.Errorf("%s answered %v past its %v deadline, want at most 250ms", c.target, late, timeout)
		}
	}
}

// TestTimeoutStopsRawSQLJoin runs a raw-sql self-join over
// performance_result that takes seconds untimed under a 50 ms deadline:
// the executor checks ctx as it joins, so the timeout envelope comes
// back well within half a second.
func TestTimeoutStopsRawSQLJoin(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	loadDoc(t, ts.URL, ptdfDoc("join", 2000))
	body := `{"sql":"SELECT count(*) FROM performance_result a JOIN performance_result b ON a.value < b.value - 1000000"}`
	rec, took := serve(srv, "POST", "/v1/sql", body, "req-join")
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutEnvelope("req-join") {
		t.Errorf("join under a 50ms deadline: status %d, body %s", rec.Code, rec.Body)
	}
	if took > 500*time.Millisecond {
		t.Errorf("join answered after %v, want within 500ms", took)
	}
}

// stuckHandler ignores its deadline: it closes expired once its context
// has ended, then keeps working until release is closed.
func stuckHandler(expired, release chan struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
		close(expired)
		<-release
	}
}

// TestShedWhileTimedOutHandlerRuns: the limiter slot is held until the
// handler returns, not until its deadline. With MaxInFlight=1, a request
// arriving while a timed-out handler still works is shed with 429.
func TestShedWhileTimedOutHandlerRuns(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.MaxInFlight = 1
		c.RequestTimeout = 20 * time.Millisecond
	})
	expired, release := make(chan struct{}), make(chan struct{})
	stuck := srv.route("/v1/stats", api, stuckHandler(expired, release))
	first := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		stuck.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		first <- rec.Code
	}()
	<-expired
	select {
	case code := <-first:
		close(release)
		t.Fatalf("the timed-out request was answered (%d) while its handler still ran", code)
	case <-time.After(50 * time.Millisecond):
	}
	rec := httptest.NewRecorder()
	srv.route("/v1/stats", api, srv.handleStats).ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	close(release)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("second request while the first handler still runs: status %d, want 429", rec.Code)
	}
	if code := <-first; code != http.StatusServiceUnavailable {
		t.Errorf("timed-out request: status %d, want 503", code)
	}
}

// TestDrainWaitsForTimedOutHandler: Shutdown drains a timed-out request
// until its handler returns, and only then checkpoints.
func TestDrainWaitsForTimedOutHandler(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.RequestTimeout = 20 * time.Millisecond
		c.SelfMonInterval = -1
	})
	expired, release := make(chan struct{}), make(chan struct{})
	srv.httpSrv.Handler = srv.route("/v1/stats", api, stuckHandler(expired, release))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	reply := make(chan int, 1)
	go func() {
		r, err := http.Get("http://" + l.Addr().String() + "/v1/stats")
		if err != nil {
			reply <- 0
			return
		}
		r.Body.Close()
		reply <- r.StatusCode
	}()
	<-expired
	done := make(chan error, 1)
	go func() { done <- srv.Shutdown(context.Background()) }()
	select {
	case err := <-done:
		close(release)
		t.Fatalf("Shutdown returned (%v) while a timed-out handler was still running", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code := <-reply; code != http.StatusServiceUnavailable {
		t.Errorf("timed-out request: status %d, want 503", code)
	}
}
