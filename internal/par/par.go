// Package par is the one fan-out: a job split into parts that run at
// once, GOMAXPROCS wide. Callers merge the parts' results in part order,
// so a result does not depend on the width.
package par

import (
	"runtime"
	"sync"
)

// Workers is the width of a job of n parts: GOMAXPROCS, but never more
// than n and never less than one.
func Workers(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n), 1)
}

// Each calls fn(i) for every i in [0, n) at once, part 0 on the
// caller's goroutine, and returns when all have. The error is the
// lowest-numbered failing part's, whichever part failed first.
func Each(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	errs[0] = fn(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Range splits [0, n) into Workers(n) contiguous spans of near-equal
// length and calls fn(lo, hi) on each through Each.
func Range(n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(n)
	return Each(w, func(i int) error { return fn(i*n/w, (i+1)*n/w) })
}
