package obs

import (
	"runtime"
	"runtime/metrics"
)

// readRuntime returns the current value of one runtime/metrics counter or
// gauge. runtime/metrics reads without stopping the world, so every scrape
// reads fresh values: two scrapes a GC apart differ.
func readRuntime(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// RegisterRuntimeMetrics registers Go runtime gauges (goroutines, heap
// bytes, GC pause totals, GC cycles) on the registry.
func RegisterRuntimeMetrics(r *Registry) {
	r.GaugeFunc("go_goroutines", "Number of live goroutines.", func() float64 {
		return float64(runtime.NumGoroutine())
	})
	r.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.", func() float64 {
		return float64(readRuntime("/memory/classes/heap/objects:bytes"))
	})
	r.GaugeFunc("go_heap_objects", "Number of allocated heap objects.", func() float64 {
		return float64(readRuntime("/gc/heap/objects:objects"))
	})
	// runtime/metrics keeps pause times only as a histogram, so the exact
	// total takes the one ReadMemStats a scrape makes.
	r.GaugeFunc("go_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time in seconds.", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.PauseTotalNs) / 1e9
	})
	r.CounterFunc("go_gc_cycles_total", "Completed GC cycles.", func() uint64 {
		return readRuntime("/gc/cycles/total:gc-cycles")
	})
}
