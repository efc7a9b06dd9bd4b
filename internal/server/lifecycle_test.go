package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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
// the reply.
func serve(srv *Server, method, target, body, rid string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	req.Header.Set("X-Request-Id", rid)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	return rec
}

// timeoutEnvelope is the exact reply to a request whose deadline passed.
func timeoutEnvelope(rid string) string {
	return "{\n  \"api_version\": \"v1\",\n  \"error\": \"request timed out\",\n  \"request_id\": \"" + rid + "\"\n}\n"
}

// countdown is a request context that ends at its k-th cancellation
// check — an Err call on it, or on a context derived from it by value, as
// every span's is — by calling end, which cancels it or waits for the
// route's deadline. It counts, per goroutine, the checks that reported
// the end.
type countdown struct {
	context.Context // the route's context, or a cancelable child of it
	end             func()
	k               int64
	checks          atomic.Int64
	mu              sync.Mutex
	failed          map[string]int // goroutine → checks that returned the cancellation
}

func (c *countdown) Err() error {
	if c.checks.Add(1) < c.k {
		return c.Context.Err()
	}
	c.end()
	var buf [64]byte
	g, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:runtime.Stack(buf[:], false)]), "goroutine "), " ")
	c.mu.Lock()
	c.failed[g]++
	c.mu.Unlock()
	return c.Context.Err()
}

// ticksAfter reports the most checks one goroutine made that returned the
// cancellation: 1 when each returned at the first.
func (c *countdown) ticksAfter() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	most := 0
	for _, n := range c.failed {
		most = max(most, n)
	}
	return most
}

// newCountdown returns a countdown of k over ctx. With untilDeadline its
// k-th check cancels nothing: it waits for ctx's own deadline to pass.
func newCountdown(ctx context.Context, k int64, untilDeadline bool) *countdown {
	cd := &countdown{Context: ctx, end: func() { <-ctx.Done() }, k: k, failed: make(map[string]int)}
	if !untilDeadline {
		cd.Context, cd.end = context.WithCancel(ctx)
	}
	return cd
}

// withCountdown makes every api request served from now until the test
// ends run under a countdown (newCountdown), and returns a function that
// reports the last one installed.
func withCountdown(t *testing.T, k int64, untilDeadline bool) func() *countdown {
	var last atomic.Pointer[countdown]
	testContext = func(ctx context.Context) context.Context {
		cd := newCountdown(ctx, k, untilDeadline)
		last.Store(cd)
		return cd
	}
	t.Cleanup(func() { testContext = nil })
	return last.Load
}

// TestTimeoutPromptOnEveryTimedRoute cancels by count, not by clock: a
// cold count, a comparison, a diagnosis and a raw-sql join each run under
// a context that cancels itself at its k-th cancellation check, for eight
// k spread from the first check to the last but one of an untimed run.
// Each answers the exact timeout envelope, and does at most one tick of
// work after the cancellation: every goroutine working for the request
// returns at the first check that reports it.
func TestTimeoutPromptOnEveryTimedRoute(t *testing.T) {
	store, fleet := timedCorpus(t, 40, 64, 24)
	srv, err := New(Config{Store: store, RequestTimeout: time.Hour, SelfMonInterval: -1})
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
		// (index permutations, dictionary views); the second counts the
		// checks.
		last := withCountdown(t, math.MaxInt64, false)
		var n int64
		for range 2 {
			bump()
			if rec := serve(srv, c.method, c.target, c.body, "untimed"); rec.Code != http.StatusOK {
				t.Fatalf("%s untimed: status %d: %s", c.target, rec.Code, rec.Body)
			}
			n = last().checks.Load()
		}
		if n < 3 {
			t.Fatalf("%s: an untimed run makes %d cancellation checks, want 3 or more", c.target, n)
		}
		for step := range int64(8) {
			k := 1 + step*(n-2)/7 // from the first check to the last but one
			bump()
			last := withCountdown(t, k, false)
			rid := fmt.Sprintf("req-%d-%d", i, k)
			rec := serve(srv, c.method, c.target, c.body, rid)
			if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutEnvelope(rid) {
				t.Errorf("%s cancelled at check %d of %d: status %d, body %s", c.target, k, n, rec.Code, rec.Body)
			}
			if ticks := last().ticksAfter(); ticks != 1 {
				t.Errorf("%s cancelled at check %d of %d: a goroutine made %d checks that returned the cancellation, want 1", c.target, k, n, ticks)
			}
		}
	}
}

// TestTimeoutStopsRawSQLJoin runs a raw-sql self-join over
// performance_result, which takes seconds untimed, under a real 50 ms
// deadline whose passing is ordered, not raced: the join's second
// cancellation check waits for it. The deadline thus ends the join part
// way on any host, and the join answers the timeout envelope with every
// goroutine returning at the first check that reports it.
func TestTimeoutStopsRawSQLJoin(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.RequestTimeout = 50 * time.Millisecond })
	loadDoc(t, ts.URL, ptdfDoc("join", 2000))
	last := withCountdown(t, 2, true)
	body := `{"sql":"SELECT count(*) FROM performance_result a JOIN performance_result b ON a.value < b.value - 1000000"}`
	rec := serve(srv, "POST", "/v1/sql", body, "req-join")
	if rec.Code != http.StatusServiceUnavailable || rec.Body.String() != timeoutEnvelope("req-join") {
		t.Errorf("join under a 50ms deadline: status %d, body %s", rec.Code, rec.Body)
	}
	if cd := last(); cd == nil || cd.ticksAfter() != 1 || !errors.Is(cd.Context.Err(), context.DeadlineExceeded) {
		t.Error("the join did not return at the first check that reported its deadline")
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
	// The window cannot make a correct route fail, which never answers
	// before its handler returns; it can only miss a route that does.
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
	// As above, the window can only miss a Shutdown that returns early,
	// never fail a correct one.
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
