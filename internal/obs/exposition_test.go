package obs

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// TestExemplarReplacement pins the slot policy: the bucket keeps its
// worst recent observation, so a smaller value never displaces a larger
// one inside the TTL, a larger value always does, and an empty trace ID
// records the observation without touching the slot.
func TestExemplarReplacement(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.ObserveExemplar(0.5, "a")
	h.ObserveExemplar(0.3, "b") // smaller: ignored
	if ex := h.BucketExemplars()[0]; ex == nil || ex.TraceID != "a" || ex.Value != 0.5 {
		t.Fatalf("after smaller observation: %+v, want a/0.5", ex)
	}
	h.ObserveExemplar(0.7, "c") // larger: takes the slot
	if ex := h.BucketExemplars()[0]; ex == nil || ex.TraceID != "c" || ex.Value != 0.7 {
		t.Fatalf("after larger observation: %+v, want c/0.7", ex)
	}
	h.ObserveExemplar(0.9, "") // no trace: counted, slot untouched
	if ex := h.BucketExemplars()[0]; ex == nil || ex.TraceID != "c" {
		t.Fatalf("empty trace ID touched the slot: %+v", ex)
	}
	if h.Count() != 4 {
		t.Errorf("Count = %d, want 4 (every call observes)", h.Count())
	}
	// Buckets are independent slots.
	if ex := h.BucketExemplars()[1]; ex != nil {
		t.Errorf("+Inf bucket has an exemplar with no overflow observations: %+v", ex)
	}
	h.ObserveExemplar(2, "inf")
	if ex := h.BucketExemplars()[1]; ex == nil || ex.TraceID != "inf" {
		t.Errorf("+Inf bucket exemplar = %+v, want inf", ex)
	}
}

// TestExemplarTTLExpiry forces the holder's timestamp into the past and
// checks a smaller fresh observation may then take the slot.
func TestExemplarTTLExpiry(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.ObserveExemplar(0.9, "old")
	ex := h.BucketExemplars()[0]
	ex.Unix -= int64(exemplarTTL.Seconds()) + 1 // age the holder in place
	h.exemplars[0].Store(ex)
	h.ObserveExemplar(0.1, "fresh")
	if got := h.BucketExemplars()[0]; got == nil || got.TraceID != "fresh" {
		t.Fatalf("stale exemplar survived a fresh observation: %+v", got)
	}
}

// TestExemplarEscaping checks a hostile trace ID is escaped on the wire
// exactly once (no double-escaping), the line still parses, and the
// exemplar only appears on OpenMetrics output — the plain 0.0.4 parser
// rejects trailing content after a sample value, so WritePrometheus
// must stay exemplar-free.
func TestExemplarEscaping(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1})
	r.RegisterHistogram("esc_seconds", "Escaping.", h)
	h.ObserveExemplar(0.5, "id\"with\\tricks\nnewline")
	var buf bytes.Buffer
	if err := r.WriteOpenMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	want := `# {trace_id="id\"with\\tricks\nnewline"}`
	if !strings.Contains(out, want) {
		t.Fatalf("OpenMetrics exposition missing escaped exemplar %q:\n%s", want, out)
	}
	if strings.Contains(out, "\\\\\"") || strings.Count(out, "\n\n") > 0 {
		t.Errorf("escaping artifacts in exposition:\n%s", out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated by # EOF:\n%s", out)
	}
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if plain := buf.String(); strings.Contains(plain, "# {") || strings.Contains(plain, "# EOF") {
		t.Errorf("0.0.4 exposition carries OpenMetrics-only syntax:\n%s", plain)
	}
}

// parseExposition splits an exposition body into comment and sample
// lines per family, preserving order.
type familyBlock struct {
	help, typ int // line counts
	samples   []string
}

func parseExposition(t *testing.T, body string) map[string]*familyBlock {
	t.Helper()
	fams := make(map[string]*familyBlock)
	get := func(name string) *familyBlock {
		// A sample of histogram family X arrives as X_bucket/X_sum/X_count.
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(name, suffix); base != name {
				if _, ok := fams[base]; ok {
					name = base
					break
				}
			}
		}
		if fams[name] == nil {
			fams[name] = &familyBlock{}
		}
		return fams[name]
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition")
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP "):
			get(fields[2]).help++
		case strings.HasPrefix(line, "# TYPE "):
			fb := get(fields[2])
			fb.typ++
			if fb.help > 0 && len(fb.samples) > 0 {
				t.Errorf("TYPE for %s after its samples", fields[2])
			}
		case line == "# EOF":
			// OpenMetrics terminator; appears at most once, at the end.
		case strings.HasPrefix(line, "#"):
			t.Fatalf("unknown comment line: %s", line)
		default:
			name := fields[0]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			fb := get(name)
			if fb.typ == 0 {
				t.Errorf("sample before TYPE: %s", line)
			}
			fb.samples = append(fb.samples, line)
		}
	}
	return fams
}

// TestExpositionStrict renders a mixed registry in both formats and
// checks the invariants a strict scraper depends on: one HELP and one
// TYPE per family, comments before samples, buckets cumulative and
// monotone, the +Inf bucket equal to _count, _sum/_count present per
// series — and exemplars confined to the OpenMetrics body.
func TestExpositionStrict(t *testing.T) {
	r := NewRegistry()
	r.Counter("strict_events_total", "Events.").Add(7)
	r.Gauge("strict_depth", "Depth.").Add(3.5)
	hv := r.HistogramVec("strict_latency_seconds", "Latency.", []float64{0.1, 1}, "route")
	for _, v := range []float64{0.05, 0.5, 0.5, 2} {
		hv.With("/a").ObserveExemplar(v, "trace-a")
	}
	hv.With("/b").Observe(0.01)

	var plain, om bytes.Buffer
	if err := r.WritePrometheus(&plain); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), " # {") || strings.Contains(plain.String(), "# EOF") {
		t.Errorf("plain 0.0.4 exposition carries OpenMetrics-only syntax:\n%s", plain.String())
	}
	if !strings.Contains(om.String(), `# {trace_id="trace-a"}`) {
		t.Errorf("OpenMetrics exposition missing the trace-a exemplar:\n%s", om.String())
	}
	if !strings.HasSuffix(om.String(), "# EOF\n") {
		t.Errorf("OpenMetrics exposition not terminated by # EOF:\n%s", om.String())
	}
	checkStrict(t, plain.String())
	checkStrict(t, om.String())
}

func checkStrict(t *testing.T, body string) {
	t.Helper()
	fams := parseExposition(t, body)
	for _, name := range []string{"strict_events_total", "strict_depth", "strict_latency_seconds"} {
		fb := fams[name]
		if fb == nil {
			t.Fatalf("family %s missing from exposition:\n%s", name, body)
		}
		if fb.help != 1 || fb.typ != 1 {
			t.Errorf("%s: %d HELP / %d TYPE lines, want exactly 1 each", name, fb.help, fb.typ)
		}
		if len(fb.samples) == 0 {
			t.Errorf("%s: no samples", name)
		}
	}

	// Histogram invariants, per labelled series.
	for _, route := range []string{"/a", "/b"} {
		var cum []uint64
		var infCount, count uint64
		var haveSum, haveCount, haveInf bool
		for _, line := range fams["strict_latency_seconds"].samples {
			if !strings.Contains(line, `route="`+route+`"`) && !strings.HasPrefix(line, "strict_latency_seconds_sum{route=\""+route) &&
				!strings.HasPrefix(line, "strict_latency_seconds_count{route=\""+route) {
				continue
			}
			// Strip any exemplar before reading the sample value.
			sample := line
			if i := strings.Index(sample, " # "); i >= 0 {
				sample = sample[:i]
			}
			fields := strings.Fields(sample)
			v, err := strconv.ParseUint(fields[len(fields)-1], 10, 64)
			isSum := strings.HasPrefix(line, "strict_latency_seconds_sum")
			if err != nil && !isSum {
				t.Fatalf("unparseable sample value in %q: %v", line, err)
			}
			switch {
			case isSum:
				haveSum = true
			case strings.HasPrefix(line, "strict_latency_seconds_count"):
				haveCount, count = true, v
			case strings.Contains(line, `le="+Inf"`):
				haveInf, infCount = true, v
				cum = append(cum, v)
			default:
				cum = append(cum, v)
			}
		}
		if !haveSum || !haveCount || !haveInf {
			t.Fatalf("series %s missing _sum/_count/+Inf: sum=%v count=%v inf=%v", route, haveSum, haveCount, haveInf)
		}
		if infCount != count {
			t.Errorf("series %s: +Inf bucket %d != _count %d", route, infCount, count)
		}
		for i := 1; i < len(cum); i++ {
			if cum[i] < cum[i-1] {
				t.Errorf("series %s: buckets not cumulative: %v", route, cum)
			}
		}
	}

	// Families render in sorted order so scrapes diff cleanly.
	var order []string
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			order = append(order, strings.Fields(line)[2])
		}
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Errorf("families out of order: %v", order)
		}
	}
}
