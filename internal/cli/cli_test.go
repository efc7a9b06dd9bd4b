package cli

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"perftrack/internal/client"
	"perftrack/internal/server"
)

const doc = `Application app
Execution run-%d app
Resource /app application
Resource /run-%d execution run-%d
PerfResult run-%d /app,/run-%d(primary) t "wall clock time" 1.5 seconds
`

// TestOpenServesDirectoryInProcess: a -db target answers the v1 API over
// its in-memory listener — a multipart load streaming status lines, and
// concurrent requests — and reopens with what it loaded after Close.
func TestOpenServesDirectoryInProcess(t *testing.T) {
	dir := t.TempDir()
	tg, err := Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var docs []client.BatchDoc
	for i := range 3 {
		docs = append(docs, client.BatchDoc{R: strings.NewReader(strings.ReplaceAll(doc, "%d", string(rune('0'+i))))})
	}
	var statuses []server.LoadDocStatus
	summary, err := tg.LoadBatch(ctx, docs, 2, func(st server.LoadDocStatus) { statuses = append(statuses, st) })
	if err != nil || summary.Docs != 3 || summary.Failed != 0 || len(statuses) != 3 {
		t.Fatalf("bulk load: %+v, %d statuses, %v", summary, len(statuses), err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qr, err := tg.Query(ctx, []string{"type=application"})
			if err == nil && qr.Matches != 3 {
				err = fmt.Errorf("%d matches, want 3", qr.Matches)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tg.Close(); err != nil {
		t.Fatal(err)
	}

	tg, err = Open(dir, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tg.Close()
	st, err := tg.Stats(ctx)
	if err != nil || st.Store.Executions != 3 || st.Store.Results != 3 {
		t.Fatalf("reopened: %+v, %v", st.Store, err)
	}
}
