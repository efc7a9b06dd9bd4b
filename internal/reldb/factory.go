package reldb

import "fmt"

// Storage engine kinds selectable through Open. The paper's prototype
// swapped DBMS backends (Oracle, PostgreSQL); here the same seam picks
// between the transient in-memory engine and the durable one.
const (
	KindMem     = "mem"
	KindSegment = "segment"
)

// Open opens a store with the requested engine kind: "mem" for the
// in-memory engine, or "segment" (also "", and the legacy spelling
// "wal") for the durable engine rooted at dir.
func Open(kind, dir string) (Engine, error) {
	switch kind {
	case KindMem:
		return NewMem(), nil
	case "", "wal", KindSegment:
		if dir == "" {
			return nil, fmt.Errorf("reldb: storage engine %q requires a directory", KindSegment)
		}
		fe, err := OpenFile(dir)
		if err != nil {
			return nil, err
		}
		return fe, nil
	}
	return nil, fmt.Errorf("reldb: unknown storage engine %q (want %s or %s)", kind, KindMem, KindSegment)
}

// Kind reports the storage engine kind of the in-memory engine.
func (db *DB) Kind() string { return KindMem }

// Kind reports the storage engine kind of the durable engine.
func (fe *FileEngine) Kind() string { return KindSegment }
