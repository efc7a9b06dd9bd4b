package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"testing"
)

// TestPlanCacheOverHTTP pins the /v1/sql result cache end to end: a
// query asked a third time is served from cache with identical bytes
// (the second fill stored it), /v1/stats reports the counters, and an
// ingest (generation bump) invalidates.
func TestPlanCacheOverHTTP(t *testing.T) {
	ts := seedTwoExecServer(t)
	req := SQLRequest{SQL: "SELECT execution, count(*), avg(value) FROM performance_result GROUP BY execution ORDER BY execution"}

	var r0, r1, r2 SQLResponse
	if code, raw := postJSON(t, ts.URL+"/v1/sql", req, &r0); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	code, raw1 := postJSON(t, ts.URL+"/v1/sql", req, &r1)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw1)
	}
	code, raw2 := postJSON(t, ts.URL+"/v1/sql", req, &r2)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw2)
	}
	if raw1 != raw2 {
		t.Fatalf("cache hit changed the response bytes:\n%s\nvs\n%s", raw1, raw2)
	}

	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats status %d", resp.StatusCode)
	}
	if st.PlanCache == nil {
		t.Fatalf("stats missing plan_cache section")
	}
	if st.PlanCache.Hits < 1 || st.PlanCache.Misses < 1 || st.PlanCache.Entries < 1 || st.PlanCache.Declined != 1 {
		t.Fatalf("plan_cache counters = %+v, want >=1 hit/miss/entry and the first fill declined", *st.PlanCache)
	}

	// Ingest bumps the store generation; the same query must re-execute
	// and see the new rows.
	loadDoc(t, ts.URL, ptdfDoc("c", 5))
	var r3 SQLResponse
	code, raw3 := postJSON(t, ts.URL+"/v1/sql", req, &r3)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw3)
	}
	if len(r3.Rows) != 3 {
		t.Fatalf("post-ingest groups = %d, want 3 (stale cache?): %s", len(r3.Rows), raw3)
	}
}

// TestPlanCacheConcurrentFills races /v1/sql handlers filling the result
// cache at once: two statements, each asked three times by four clients.
// Every answer to a statement is the same bytes, every request counts one
// hit or one miss, and both statements end up stored.
func TestPlanCacheConcurrentFills(t *testing.T) {
	ts := seedTwoExecServer(t)
	sqls := []string{
		"SELECT execution, count(*) FROM performance_result GROUP BY execution ORDER BY execution",
		"SELECT metric, avg(value) FROM performance_result GROUP BY metric ORDER BY metric",
	}
	const clients, asks = 4, 3
	bodies := make([][]string, len(sqls))
	var wg sync.WaitGroup
	for q, sql := range sqls {
		bodies[q] = make([]string, clients*asks)
		req, _ := json.Marshal(SQLRequest{SQL: sql})
		for c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range asks {
					r, err := http.Post(ts.URL+"/v1/sql", "application/json", bytes.NewReader(req))
					if err != nil {
						t.Error(err)
						return
					}
					raw, _ := io.ReadAll(r.Body)
					r.Body.Close()
					if r.StatusCode != http.StatusOK {
						t.Errorf("status %d: %s", r.StatusCode, raw)
					}
					bodies[q][c*asks+a] = string(raw)
				}
			}()
		}
	}
	wg.Wait()
	for q, answers := range bodies {
		for _, b := range answers[1:] {
			if b != answers[0] {
				t.Fatalf("statement %d answered differently:\n%s\nvs\n%s", q, b, answers[0])
			}
		}
	}
	var st StatsResponse
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if pc := st.PlanCache; pc == nil || pc.Hits+pc.Misses != uint64(len(sqls)*clients*asks) || pc.Entries != len(sqls) {
		t.Errorf("plan_cache = %+v, want %d lookups and %d entries", pc, len(sqls)*clients*asks, len(sqls))
	}
}
