package par

import (
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// withWorkers sets GOMAXPROCS, the width of every fan-out, to n for the
// rest of the test.
func withWorkers(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestEachRunsEveryPartOnce(t *testing.T) {
	withWorkers(t, 4)
	for _, n := range []int{0, 1, 2, 7, 64} {
		calls := make([]atomic.Int32, n)
		if err := Each(n, func(i int) error {
			calls[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("n=%d: part %d ran %d times", n, i, c)
			}
		}
	}
}

// TestEachReturnsLowestPartError: part 2 fails first, part 1 only after
// it, and part 0 succeeds after both; part 1's error is the one returned.
func TestEachReturnsLowestPartError(t *testing.T) {
	err1, err2 := errors.New("part 1"), errors.New("part 2")
	failed2, failed1 := make(chan struct{}), make(chan struct{})
	err := Each(3, func(i int) error {
		switch i {
		case 2:
			close(failed2)
			return err2
		case 1:
			<-failed2
			close(failed1)
			return err1
		}
		<-failed1
		return nil
	})
	if err != err1 {
		t.Fatalf("Each = %v, want %v", err, err1)
	}
}

func TestRangeCoversContiguousSpans(t *testing.T) {
	for _, procs := range []int{1, 3, 4} {
		withWorkers(t, procs)
		for _, n := range []int{0, 1, 2, 3, 5, 10, 1001} {
			var mu sync.Mutex
			var spans [][2]int
			if err := Range(n, func(lo, hi int) error {
				mu.Lock()
				spans = append(spans, [2]int{lo, hi})
				mu.Unlock()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			want := min(procs, n)
			if len(spans) != want {
				t.Errorf("GOMAXPROCS=%d n=%d: %d spans, want %d", procs, n, len(spans), want)
			}
			sort.Slice(spans, func(a, b int) bool { return spans[a][0] < spans[b][0] })
			next := 0
			for _, s := range spans {
				if s[0] != next || s[1] <= s[0] {
					t.Fatalf("GOMAXPROCS=%d n=%d: spans %v are not contiguous and non-empty", procs, n, spans)
				}
				next = s[1]
			}
			if next != n {
				t.Errorf("GOMAXPROCS=%d n=%d: spans %v end at %d", procs, n, spans, next)
			}
		}
	}
}
