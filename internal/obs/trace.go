package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// ctxSpanKey carries the current *Span through a context.
type ctxSpanKey struct{}

// Annotation is one key=value note attached to a span.
type Annotation struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is an immutable copy of one recorded span.
type SpanData struct {
	ID          int           `json:"id"`
	Parent      int           `json:"parent"` // -1 for the root
	Name        string        `json:"name"`
	Start       time.Time     `json:"start"`
	Duration    time.Duration `json:"duration"`
	Annotations []Annotation  `json:"annotations,omitempty"`
}

// TraceData is an immutable copy of a completed trace.
type TraceData struct {
	ID         string
	Name       string
	Start      time.Time
	Duration   time.Duration
	Slow       bool
	Spans      []SpanData
	Attachment any // set by Span.Attach; shared, not copied
}

// Trace is one request's span tree. Spans may start and end from
// multiple goroutines; the trace's mutex serializes mutation. A trace
// becomes visible in the tracer's rings only when its root span ends,
// so anything read back out of a ring is complete.
type Trace struct {
	tracer *Tracer
	id     string
	name   string
	start  time.Time

	mu         sync.Mutex
	spans      []*Span
	duration   time.Duration
	slow       bool
	done       bool
	attachment any
}

// Span is a live handle to one operation inside a trace. The zero
// handle (a nil *Span) is valid: every method is a no-op, which is what
// instrumented code gets when no trace rides the context.
type Span struct {
	trace  *Trace
	idx    int // index in trace.spans; 0 is the root
	parent int // parent index, -1 for the root

	name        string
	start       time.Time
	duration    time.Duration
	annotations []Annotation
}

// Tracer owns the trace rings and the slow-op policy.
type Tracer struct {
	slowThreshold time.Duration
	onSlow        func(*Trace)
	recent        *Ring[Trace]
	slow          *Ring[Trace]

	started   atomic.Uint64
	completed atomic.Uint64
	slowCount atomic.Uint64
	spanCount atomic.Uint64
}

// NewTracer returns a tracer keeping the last capacity completed traces
// (and the last capacity slow ones, separately). A trace whose total
// duration reaches slowThreshold is marked slow and passed to onSlow,
// if set; slowThreshold <= 0 disables slow-op detection.
func NewTracer(capacity int, slowThreshold time.Duration, onSlow func(*Trace)) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		slowThreshold: slowThreshold,
		onSlow:        onSlow,
		recent:        NewRing[Trace](capacity),
		slow:          NewRing[Trace](capacity),
	}
}

// StartTrace begins a trace with the given request ID and root span
// name, returning a context that carries the root span. End the
// returned span to complete the trace and publish it to the rings.
func (t *Tracer) StartTrace(ctx context.Context, id, name string) (context.Context, *Span) {
	t.started.Add(1)
	t.spanCount.Add(1)
	tr := &Trace{tracer: t, id: id, name: name, start: time.Now()}
	root := &Span{trace: tr, idx: 0, parent: -1, name: name, start: tr.start}
	tr.spans = []*Span{root}
	return context.WithValue(ctx, ctxSpanKey{}, root), root
}

// StartSpan begins a child of the span carried by ctx, returning a
// context that carries the new span. When ctx carries no span — the
// caller was not invoked under a trace — it returns ctx unchanged and a
// nil handle, at the cost of a single context lookup.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxSpanKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	tr := parent.trace
	s := &Span{trace: tr, parent: parent.idx, name: name, start: time.Now()}
	tr.mu.Lock()
	s.idx = len(tr.spans)
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
	tr.tracer.spanCount.Add(1)
	return context.WithValue(ctx, ctxSpanKey{}, s), s
}

// SpanFromContext returns the span carried by ctx, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxSpanKey{}).(*Span)
	return s
}

// Annotate attaches a key=value note to the span. No-op on a nil span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.annotations = append(s.annotations, Annotation{Key: key, Value: value})
	s.trace.mu.Unlock()
}

// Attach sets the one value its trace carries beyond spans and
// annotations, replacing any earlier one; the caller must not mutate v
// afterwards, since readers share it. No-op on a nil span.
func (s *Span) Attach(v any) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.trace.attachment = v
	s.trace.mu.Unlock()
}

// End finishes the span. Ending the root span completes the trace:
// its duration is fixed, slow-op policy runs, and the trace is
// published to the tracer's rings. No-op on a nil span.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := time.Since(s.start)
	tr := s.trace
	tr.mu.Lock()
	s.duration = d
	if s.idx != 0 || tr.done {
		tr.mu.Unlock()
		return
	}
	tr.done = true
	tr.duration = d
	slow := tr.tracer.slowThreshold > 0 && d >= tr.tracer.slowThreshold
	tr.slow = slow
	tr.mu.Unlock()

	tc := tr.tracer
	tc.completed.Add(1)
	tc.recent.Put(tr)
	if slow {
		tc.slowCount.Add(1)
		tc.slow.Put(tr)
		if tc.onSlow != nil {
			tc.onSlow(tr)
		}
	}
}

// ID returns the trace's request ID.
func (t *Trace) ID() string { return t.id }

// Name returns the root span's name (the route).
func (t *Trace) Name() string { return t.name }

// Duration returns the trace's total duration, zero until it completes.
func (t *Trace) Duration() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.duration
}

// SpanCount returns the number of spans the trace holds.
func (t *Trace) SpanCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Attachment returns the value set by Span.Attach, or nil.
func (t *Trace) Attachment() any {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attachment
}

// Data returns an immutable deep copy of the trace's spans, with its
// attachment.
func (t *Trace) Data() TraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	d := TraceData{
		ID:         t.id,
		Name:       t.name,
		Start:      t.start,
		Duration:   t.duration,
		Slow:       t.slow,
		Spans:      make([]SpanData, len(t.spans)),
		Attachment: t.attachment,
	}
	for i, s := range t.spans {
		d.Spans[i] = SpanData{
			ID:          s.idx,
			Parent:      s.parent,
			Name:        s.name,
			Start:       s.start,
			Duration:    s.duration,
			Annotations: append([]Annotation(nil), s.annotations...),
		}
	}
	return d
}

// Traces returns the completed traces (with slow, the slow ones),
// newest first, without copying them.
func (t *Tracer) Traces(slow bool) []*Trace {
	if slow {
		return t.slow.Snapshot(0)
	}
	return t.recent.Snapshot(0)
}

// Find returns the most recent completed trace with the given request
// ID, searching the recent ring and then the slow ring (a slow trace
// can outlive its slot in the recent ring).
func (t *Tracer) Find(id string) (TraceData, bool) {
	for _, ring := range []*Ring[Trace]{t.recent, t.slow} {
		for _, tr := range ring.Snapshot(0) {
			if tr.id == id {
				return tr.Data(), true
			}
		}
	}
	return TraceData{}, false
}

// Stats reports lifetime tracer counters.
func (t *Tracer) Stats() (started, completed, slow, spans uint64) {
	return t.started.Load(), t.completed.Load(), t.slowCount.Load(), t.spanCount.Load()
}
