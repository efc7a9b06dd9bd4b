package reldb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Storage engine kinds selectable through Open. The paper's prototype
// swapped DBMS backends (Oracle, PostgreSQL); here the same seam picks
// between the transient in-memory engine, the durable WAL+snapshot
// engine, and the columnar segment engine layered on top of it.
const (
	KindMem     = "mem"
	KindWAL     = "wal"
	KindSegment = "segment"
)

// engineMarkerFile records a durable store's engine kind inside its
// directory, so that auto-detecting opens (OpenFile, or Open with an
// empty kind) never silently read a segment-format store as plain WAL —
// which would drop every segment-resident row.
const engineMarkerFile = "perftrack.engine"

// Open opens a store with the requested engine kind: "mem", "wal",
// "segment", or "" to auto-detect from the directory's marker
// (defaulting to "wal" for new and legacy stores). Opening an existing
// durable store with a conflicting explicit kind is an error, except
// that a plain WAL store may be upgraded in place to "segment" (all of
// its rows live in the snapshot and WAL, so nothing is lost).
func Open(kind, dir string) (Engine, error) {
	switch kind {
	case KindMem:
		return NewMem(), nil
	case "", KindWAL, KindSegment:
	default:
		return nil, fmt.Errorf("reldb: unknown storage engine %q (want %s, %s, or %s)",
			kind, KindMem, KindWAL, KindSegment)
	}
	if dir == "" {
		return nil, fmt.Errorf("reldb: storage engine %q requires a directory", kind)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	marker, err := readEngineMarker(dir)
	if err != nil {
		return nil, err
	}
	switch {
	case marker == "" && kind == "":
		kind = KindWAL
	case kind == "":
		kind = marker
	case marker != "" && kind != marker:
		if marker == KindWAL && kind == KindSegment {
			break // in-place upgrade
		}
		return nil, fmt.Errorf("reldb: %s is a %q-format store; cannot open as %q", dir, marker, kind)
	}
	if kind != marker {
		if err := writeEngineMarker(dir, kind); err != nil {
			return nil, err
		}
	}
	return openFile(dir, kind == KindSegment)
}

// OpenFile opens (or creates) a durable database rooted at dir,
// auto-detecting the engine kind from the directory marker. Directories
// without a marker (including pre-marker stores) open as plain WAL.
func OpenFile(dir string) (*FileEngine, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("reldb: open %s: %w", dir, err)
	}
	marker, err := readEngineMarker(dir)
	if err != nil {
		return nil, err
	}
	return openFile(dir, marker == KindSegment)
}

func readEngineMarker(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, engineMarkerFile))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", fmt.Errorf("reldb: read engine marker: %w", err)
	}
	kind := strings.TrimSpace(string(data))
	switch kind {
	case KindWAL, KindSegment:
		return kind, nil
	}
	return "", fmt.Errorf("reldb: %s: unknown engine kind %q in marker", dir, kind)
}

// writeEngineMarker replaces the marker so that a crash at any point —
// notably during the wal→segment upgrade — leaves the old marker (or
// none) or the new one, never a truncated file that fails every later
// open: write a temp file, fsync it, rename it into place, fsync the
// directory.
func writeEngineMarker(dir, kind string) error {
	path := filepath.Join(dir, engineMarkerFile)
	tmp := path + ".tmp"
	err := writeSynced(tmp, []byte(kind+"\n"))
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err == nil {
		var d *os.File
		if d, err = os.Open(dir); err == nil {
			err = d.Sync()
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("reldb: write engine marker: %w", err)
	}
	return nil
}

// writeSynced writes data to a fresh file at path and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Kind reports the storage engine kind of the in-memory engine.
func (db *DB) Kind() string { return KindMem }

// Kind reports the storage engine kind of a durable engine.
func (fe *FileEngine) Kind() string {
	if fe.seg != nil {
		return KindSegment
	}
	return KindWAL
}
