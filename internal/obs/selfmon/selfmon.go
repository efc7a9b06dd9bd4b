// Package selfmon closes PerfTrack's dog-food loop: it periodically
// samples a process's own telemetry, commits each sample as one PTdf
// execution to an in-memory side store, and runs the comparison-based
// diagnosis engine (internal/diagnose) over a rolling baseline-vs-recent
// window split — so ptserved can answer "why are recent requests
// slower?" with the same ranked discriminating predicates it offers for
// any parallel application (the §6 workflow turned on the tool itself).
//
// Each sample becomes an execution named <app>-sample-<seq> whose
// exec-scoped resource carries the sample's operational attributes
// (in-flight requests, goroutines, heap, shed/slow-trace deltas, ...) as
// resource attributes, and whose time-like metrics (interval latency
// means, in seconds) feed the diagnosis perf measure. The sampler opens
// one side store for its life; once the window is full, each new sample
// deletes the oldest one's execution, so memory stays bounded no matter
// how long the process runs.
package selfmon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
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
	// Collect snapshots the process. Required. SampleNow calls it under
	// the sampler's write lock, so calls never overlap.
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

// records builds one sample's PTdf records: the app, an execution, the
// host as a grid/machine resource, an exec-scoped sample resource
// carrying the attributes (when any), and one PerfResult per metric
// focused on the sample + machine context. The results share one
// resource-set slice, as a ptdf.Reader's would.
func records(spec DocSpec, s Sample) []ptdf.Record {
	machine := core.ResourceName("/" + spec.App + "/" + spec.Host)
	recs := []ptdf.Record{
		ptdf.ApplicationRec{Name: spec.App},
		ptdf.ResourceTypeRec{Type: "grid"},
		ptdf.ResourceTypeRec{Type: "grid/machine"},
	}
	if len(s.Attrs) > 0 {
		recs = append(recs, ptdf.ResourceTypeRec{Type: "execution"})
	}
	recs = append(recs,
		ptdf.ExecutionRec{Name: spec.Exec, App: spec.App},
		ptdf.ResourceRec{Name: core.ResourceName("/" + spec.App), Type: "grid"},
		ptdf.ResourceRec{Name: machine, Type: "grid/machine"})
	focus := []core.ResourceName{machine}
	if len(s.Attrs) > 0 {
		execRes := core.ResourceName("/" + spec.Exec)
		recs = append(recs, ptdf.ResourceRec{Name: execRes, Type: "execution", Exec: spec.Exec})
		for _, kv := range s.Attrs {
			recs = append(recs, ptdf.ResourceAttributeRec{
				Resource: execRes, Attr: kv[0], Value: kv[1], AttrType: "string",
			})
		}
		focus = []core.ResourceName{execRes, machine}
	}
	sets := []ptdf.ResourceSet{{Names: focus, Type: core.FocusPrimary}}
	for _, m := range s.Metrics {
		recs = append(recs, ptdf.PerfResultRec{
			Exec: spec.Exec, Sets: sets, Tool: spec.App,
			Metric: m.Name, Value: m.Value, Units: m.Units,
		})
	}
	return recs
}

// WriteDoc serializes one sample as a loadable PTdf document: the
// optional comment, then the sample's records.
func WriteDoc(w io.Writer, spec DocSpec, s Sample) error {
	pw := ptdf.NewWriter(w)
	if spec.Comment != "" {
		pw.Comment(spec.Comment)
	}
	for _, rec := range records(spec, s) {
		pw.Write(rec)
	}
	return pw.Flush()
}

// Sampler maintains the rolling sample window in one side store.
type Sampler struct {
	cfg Config

	// mu is held for writing while SampleNow changes the store and for
	// reading while Diagnose reads it, so a slide never deletes an
	// execution under a running diagnosis.
	mu    sync.RWMutex
	store *datastore.Store // opened by New, closed by Stop
	execs []string         // the store's sample executions, oldest first
	seq   int

	samples uint64
	errors  uint64

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// Stats is a snapshot of the sampler's lifetime counters.
type Stats struct {
	Samples  uint64
	Errors   uint64
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

// SampleNow collects one sample and commits it to the side store as one
// batch; once the window is full, it deletes the oldest sample's
// execution.
func (s *Sampler) SampleNow() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sample := s.cfg.Collect()
	s.seq++
	exec := fmt.Sprintf("%s-sample-%06d", s.cfg.App, s.seq)
	b := s.store.NewBatch()
	for _, rec := range records(DocSpec{App: s.cfg.App, Exec: exec, Host: s.cfg.Host}, sample) {
		b.Stage(rec)
	}
	if _, err := b.CommitCtx(context.TODO()); err != nil {
		s.errors++
		return fmt.Errorf("selfmon: load sample: %w", err)
	}
	s.execs = append(s.execs, exec)
	s.samples++
	for len(s.execs) > s.cfg.Window {
		if err := s.store.DeleteExecution(s.execs[0]); err != nil {
			s.errors++
			return fmt.Errorf("selfmon: drop %s: %w", s.execs[0], err)
		}
		s.execs = append(s.execs[:0], s.execs[1:]...)
	}
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
// samples as side B, so a positive delta reads "recent is slower". It
// reads the store under the read lock: samples wait for it.
func (s *Sampler) Diagnose(ctx context.Context, recentN int) (*Report, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	execs := slices.Clone(s.execs)
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
	res, err := diagnose.Run(ctx, s.store, diagnose.Spec{
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
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Samples:  s.samples,
		Errors:   s.errors,
		Retained: len(s.execs),
	}
}
