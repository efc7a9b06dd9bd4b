package reldb

import "fmt"

// Storage engine kinds selectable through Open. The paper's prototype
// swapped DBMS backends (Oracle, PostgreSQL); here the kind picks where
// the one engine keeps its files: in memory, or in a directory.
const (
	KindMem     = "mem"
	KindSegment = "segment"
)

// Engine is Open's result type. Its one implementation is *DB, which DB()
// returns; Open returns an interface only because bench/e2e type-asserts
// what it returns.
type Engine interface {
	DB() *DB
	Close() error
}

// DB returns the engine itself.
func (db *DB) DB() *DB { return db }

// Open opens a store of the requested kind: "mem" for one whose files
// live in memory and die with it, or "segment" (also "") for one rooted
// at dir.
func Open(kind, dir string) (Engine, error) {
	switch kind {
	case KindMem:
		return NewMem(), nil
	case "", KindSegment:
		if dir == "" {
			return nil, fmt.Errorf("reldb: storage engine %q requires a directory", KindSegment)
		}
		db, err := OpenFile(dir)
		if err != nil {
			return nil, err
		}
		return db, nil
	}
	return nil, fmt.Errorf("reldb: unknown storage engine %q (want %s or %s)", kind, KindMem, KindSegment)
}

// NewMem opens an empty engine over an in-memory filesystem whose syncs
// cost nothing. It writes the same logs and segments as a
// directory-backed engine; they vanish with it.
func NewMem() *DB {
	db, err := open(newMemFS(), KindMem, "")
	if err != nil {
		panic(fmt.Sprintf("reldb: an empty in-memory store failed to open: %v", err))
	}
	return db
}

// OpenFile opens (or creates) the store rooted at dir.
func OpenFile(dir string) (*DB, error) { return open(osFS{}, KindSegment, dir) }

// Kind reports where the engine keeps its files: KindMem or KindSegment.
func (db *DB) Kind() string { return db.kind }

// FileEngine is DB's former name, which bench/e2e still uses.
type FileEngine = DB
