// Package cli is the one door the command-line tools open a PerfTrack
// store through. Open returns a v1 API client in both modes: pointed at a
// running ptserved (-remote), or at a store directory (-db) that it opens
// and serves in process — the same server.New handlers, over an
// in-memory listener, so a local run opens no port. A verb with a v1
// route therefore has one code path whichever flag named the store.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"perftrack/internal/client"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
	"perftrack/internal/server"
)

// prog prefixes every message the package prints.
var prog = filepath.Base(os.Args[0])

// Target is an opened store. The client answers every verb with a v1
// route. Store and DB are set for -db only, and only the verbs without a
// route use them: ptquery -detail, -delete-exec and -report free, ptsql
// -naive, ptload -checkpoint, and ptinit.
type Target struct {
	*client.Client
	Store *datastore.Store
	DB    *reldb.DB

	ln      *pipeListener
	verbose bool
	closed  bool
}

// opened lists the targets Fatal closes: os.Exit skips deferred calls.
var opened []*Target

// Open opens the store a tool's flags name: the ptserved at remote when
// it is set, else the directory db, served in process with
// self-monitoring off, no request timeout and no client retries.
func Open(db, remote string) (*Target, error) {
	if remote != "" {
		t := &Target{Client: client.New(remote)}
		opened = append(opened, t)
		return t, nil
	}
	fe, err := reldb.OpenFile(db)
	if err != nil {
		return nil, err
	}
	store, err := datastore.Open(fe)
	if err != nil {
		fe.Close()
		return nil, err
	}
	srv, err := server.New(server.Config{
		Store:                store,
		RequestTimeout:       time.Duration(1<<63 - 1),
		SlowRequestThreshold: -1,
		SelfMonInterval:      -1,
	})
	if err != nil {
		fe.Close()
		return nil, err
	}
	ln := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{}), served: make(chan struct{})}
	go func() {
		srv.Serve(ln) // returns once ln is closed
		close(ln.served)
	}()
	t := &Target{
		Client: &client.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: &http.Transport{DialContext: ln.dial}},
			MaxRetries: -1,
		},
		Store: store,
		DB:    fe,
		ln:    ln,
	}
	opened = append(opened, t)
	return t, nil
}

// MustOpen is Open that exits through Fatal on error.
func MustOpen(db, remote string) *Target {
	t, err := Open(db, remote)
	if err != nil {
		Fatal(err)
	}
	return t
}

// Verbose makes Close print the client's instrumentation counters
// (requests, retries, backoff) to stderr.
func (t *Target) Verbose() { t.verbose = true }

// Close ends the target. For -db it closes the in-process listener and
// the engine, which syncs its log; it does not shut the server down,
// which would checkpoint, so a read-only verb leaves the store's files
// as it found them.
func (t *Target) Close() error {
	if t.closed {
		return nil
	}
	t.closed = true
	if t.verbose {
		st := t.Counters()
		fmt.Fprintf(os.Stderr, "%s: client: %d requests, %d retries, %d backoff sleeps (%s total), %d stream aborts\n",
			prog, st.Requests, st.Retries, st.BackoffSleeps, st.BackoffTotal, st.StreamAborts)
	}
	if t.ln == nil {
		return nil
	}
	t.HTTPClient.CloseIdleConnections()
	t.ln.Close()
	<-t.ln.served
	return t.DB.Close()
}

// Usage reports a flag error and exits 2.
func Usage(msg string) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, msg)
	flag.Usage()
	os.Exit(2)
}

// Fatal reports err, closes every opened target and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
	for _, t := range opened {
		t.Close()
	}
	os.Exit(1)
}

// FatalExec is Fatal that turns a missing execution among execs into a
// one-line hint naming it.
func FatalExec(err error, execs ...string) {
	if errors.Is(err, datastore.ErrNotFound) {
		for _, e := range execs {
			if strings.Contains(err.Error(), strconv.Quote(e)) {
				Fatal(fmt.Errorf("execution %q not found (try 'ptquery -report executions' to list executions)", e))
			}
		}
	}
	Fatal(err)
}

// StringList is a repeatable string flag.
type StringList []string

func (s *StringList) String() string { return strings.Join(*s, ",") }

func (s *StringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// pipeListener is a net.Listener whose connections are net.Pipe pairs
// dialed in process.
type pipeListener struct {
	conns  chan net.Conn
	done   chan struct{} // closed by Close
	served chan struct{} // closed when the server's accept loop has returned
	once   sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial hands the server one end of a new pipe and returns the other.
func (l *pipeListener) dial(ctx context.Context, _, _ string) (net.Conn, error) {
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
	case <-ctx.Done():
	}
	c.Close()
	s.Close()
	return nil, net.ErrClosed
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "in-process" }
