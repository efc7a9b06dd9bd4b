// Package selfmon closes PerfTrack's dog-food loop: it periodically
// samples a process's own telemetry, serializes each sample as one PTdf
// execution into an in-memory side store, and runs the comparison-based
// diagnosis engine (internal/diagnose) over a rolling baseline-vs-recent
// window split — so ptserved can answer "why are recent requests
// slower?" with the same ranked discriminating predicates it offers for
// any parallel application (the §6 workflow turned on the tool itself).
//
// Each sample becomes an execution named <app>-sample-<seq> whose
// exec-scoped resource carries the sample's operational attributes
// (in-flight requests, goroutines, heap, shed/slow-trace deltas, ...) as
// resource attributes, and whose time-like metrics (interval latency
// means, in seconds) feed the diagnosis perf measure. The side store is
// rebuilt from the retained window when it outgrows it, so memory stays
// bounded no matter how long the process runs.
package selfmon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/diagnose"
	"perftrack/internal/ptdf"
	"perftrack/internal/reldb"
)

// Metric is one measured value of a sample. Units containing "second"
// join the diagnosis perf measure (the engine's default time-like
// metric selection); anything else is ranked only as a bottleneck when
// named explicitly.
type Metric struct {
	Name  string
	Value float64
	Units string
}

// Sample is one snapshot of the monitored process. Attrs are ordered
// key/value pairs attached to the sample's exec-scoped resource;
// numeric strings join the diagnosis engine's threshold-predicate
// search space exactly like any planted PTdf attribute.
type Sample struct {
	Metrics []Metric
	Attrs   [][2]string
}

// Config parameterizes a Sampler.
type Config struct {
	// App names the PTdf application (and tool) the samples belong to.
	// Default "ptserved".
	App string
	// Host names the grid/machine resource. Default "localhost".
	Host string
	// Interval is the background sampling period. Default 15s.
	Interval time.Duration
	// Window bounds retained samples; older samples age out of the side
	// store. Default 64.
	Window int
	// Collect snapshots the process. Required.
	Collect func() Sample
	// OnError receives background sampling failures; nil drops them.
	OnError func(error)
}

// DocSpec names the PTdf document one sample serializes into.
type DocSpec struct {
	App     string
	Exec    string
	Host    string
	Comment string
}

// WriteDoc serializes one sample as a loadable PTdf document: the app,
// an execution, the host as a grid/machine resource, an exec-scoped
// sample resource carrying the attributes (when any), and one
// PerfResult per metric focused on the sample + machine context. The
// record order matches /v1/debug/selfptdf's original hand-rolled form,
// which is the Attrs-free special case of this function.
func WriteDoc(w io.Writer, spec DocSpec, s Sample) error {
	pw := ptdf.NewWriter(w)
	if spec.Comment != "" {
		pw.Comment(spec.Comment)
	}
	pw.Write(ptdf.ApplicationRec{Name: spec.App})
	pw.Write(ptdf.ResourceTypeRec{Type: "grid"})
	pw.Write(ptdf.ResourceTypeRec{Type: "grid/machine"})
	if len(s.Attrs) > 0 {
		pw.Write(ptdf.ResourceTypeRec{Type: "execution"})
	}
	pw.Write(ptdf.ExecutionRec{Name: spec.Exec, App: spec.App})
	machine := core.ResourceName("/" + spec.App + "/" + spec.Host)
	pw.Write(ptdf.ResourceRec{Name: core.ResourceName("/" + spec.App), Type: "grid"})
	pw.Write(ptdf.ResourceRec{Name: machine, Type: "grid/machine"})
	focus := []core.ResourceName{machine}
	if len(s.Attrs) > 0 {
		execRes := core.ResourceName("/" + spec.Exec)
		pw.Write(ptdf.ResourceRec{Name: execRes, Type: "execution", Exec: spec.Exec})
		for _, kv := range s.Attrs {
			pw.Write(ptdf.ResourceAttributeRec{
				Resource: execRes, Attr: kv[0], Value: kv[1], AttrType: "string",
			})
		}
		focus = []core.ResourceName{execRes, machine}
	}
	sets := []ptdf.ResourceSet{{Names: focus, Type: core.FocusPrimary}}
	for _, m := range s.Metrics {
		pw.Write(ptdf.PerfResultRec{
			Exec: spec.Exec, Sets: sets, Tool: spec.App,
			Metric: m.Name, Value: m.Value, Units: m.Units,
		})
	}
	return pw.Flush()
}

// sampleDoc retains one loaded sample so the side store can be rebuilt
// when the window slides.
type sampleDoc struct {
	exec string
	text []byte
}

// Sampler maintains the rolling sample window and its side store.
type Sampler struct {
	cfg Config

	mu    sync.Mutex
	store *datastore.Store
	docs  []sampleDoc // oldest first; the current store holds exactly these
	seq   int

	samples  uint64
	errors   uint64
	rebuilds uint64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// Stats is a snapshot of the sampler's lifetime counters.
type Stats struct {
	Samples  uint64
	Errors   uint64
	Rebuilds uint64
	Retained int
}

// New validates the config and opens the in-memory side store.
func New(cfg Config) (*Sampler, error) {
	if cfg.Collect == nil {
		return nil, fmt.Errorf("selfmon: Config.Collect is required")
	}
	if cfg.App == "" {
		cfg.App = "ptserved"
	}
	if cfg.Host == "" {
		cfg.Host = "localhost"
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 15 * time.Second
	}
	if cfg.Window <= 0 {
		cfg.Window = 64
	}
	store, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return nil, fmt.Errorf("selfmon: side store: %w", err)
	}
	return &Sampler{
		cfg:   cfg,
		store: store,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}, nil
}

// SampleNow collects one sample and loads it into the side store,
// sliding the window if it is full.
func (s *Sampler) SampleNow() error {
	sample := s.cfg.Collect()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	exec := fmt.Sprintf("%s-sample-%06d", s.cfg.App, s.seq)
	var buf bytes.Buffer
	if err := WriteDoc(&buf, DocSpec{App: s.cfg.App, Exec: exec, Host: s.cfg.Host}, sample); err != nil {
		s.errors++
		return fmt.Errorf("selfmon: serialize sample: %w", err)
	}
	if _, err := s.store.LoadPTdf(bytes.NewReader(buf.Bytes())); err != nil {
		s.errors++
		return fmt.Errorf("selfmon: load sample: %w", err)
	}
	s.docs = append(s.docs, sampleDoc{exec: exec, text: buf.Bytes()})
	s.samples++
	if len(s.docs) > s.cfg.Window {
		if err := s.rebuildLocked(s.docs[len(s.docs)-s.cfg.Window:]); err != nil {
			s.errors++
			return err
		}
	}
	return nil
}

// rebuildLocked replaces the side store with a fresh one holding only
// the given window of retained docs, and closes the one it replaces,
// which stops that store's compactor. Readers holding the old store
// pointer keep a consistent (just stale) view: a closed store stays
// readable.
func (s *Sampler) rebuildLocked(keep []sampleDoc) error {
	fresh, err := datastore.Open(reldb.NewMem())
	if err != nil {
		return fmt.Errorf("selfmon: rebuild side store: %w", err)
	}
	for _, d := range keep {
		if _, err := fresh.LoadPTdf(bytes.NewReader(d.text)); err != nil {
			fresh.Engine().Close()
			return fmt.Errorf("selfmon: rebuild: reload %s: %w", d.exec, err)
		}
	}
	s.store.Engine().Close()
	s.store = fresh
	s.docs = append([]sampleDoc(nil), keep...)
	s.rebuilds++
	return nil
}

// ErrNotEnoughSamples is returned by Diagnose before the sampler has a
// window worth splitting.
var ErrNotEnoughSamples = errors.New("selfmon: need at least 2 samples to diagnose")

// Report is one self-diagnosis: the window split plus the engine's
// result.
type Report struct {
	Samples  int
	Baseline []string
	Recent   []string
	Result   *diagnose.Result
}

// Diagnose splits the retained window into a baseline (older) and a
// recent slice — recentN samples, default max(1, retained/4) — and runs
// the diagnosis engine with the baseline as side A and the recent
// samples as side B, so a positive delta reads "recent is slower".
func (s *Sampler) Diagnose(ctx context.Context, recentN int) (*Report, error) {
	s.mu.Lock()
	store := s.store
	execs := make([]string, len(s.docs))
	for i, d := range s.docs {
		execs[i] = d.exec
	}
	s.mu.Unlock()

	if len(execs) < 2 {
		return nil, fmt.Errorf("%w, have %d", ErrNotEnoughSamples, len(execs))
	}
	if recentN <= 0 {
		recentN = max(1, len(execs)/4)
	}
	if recentN > len(execs)-1 {
		recentN = len(execs) - 1
	}
	baseline := execs[:len(execs)-recentN]
	recent := execs[len(execs)-recentN:]
	res, err := diagnose.Run(ctx, store, diagnose.Spec{
		ExecsA: baseline,
		ExecsB: recent,
	})
	if err != nil {
		return nil, err
	}
	return &Report{
		Samples:  len(execs),
		Baseline: baseline,
		Recent:   recent,
		Result:   res,
	}, nil
}

// Start launches the background sampling loop. Safe to call once;
// subsequent calls are no-ops.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-s.stop:
					return
				case <-t.C:
					if err := s.SampleNow(); err != nil && s.cfg.OnError != nil {
						s.cfg.OnError(err)
					}
				}
			}
		}()
	})
}

// Stop halts the background loop, waits for it to exit and closes the
// side store, which stays readable. Safe to call whether or not Start
// ran.
func (s *Sampler) Stop() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.startOnce.Do(func() { close(s.done) }) // never started: unblock done
	<-s.done
	s.mu.Lock()
	s.store.Engine().Close()
	s.mu.Unlock()
}

// Stats snapshots the sampler's counters.
func (s *Sampler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Samples:  s.samples,
		Errors:   s.errors,
		Rebuilds: s.rebuilds,
		Retained: len(s.docs),
	}
}
