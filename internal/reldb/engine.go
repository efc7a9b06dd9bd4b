package reldb

// Engine is the storage-engine interface shared by the in-memory engine
// (*DB) and the durable file engine (*FileEngine). PerfTrack's data store
// is written against this interface, mirroring the original prototype's
// ability to run on either Oracle or PostgreSQL.
type Engine interface {
	CreateTable(schema *Schema) error
	CreateIndex(table string, spec IndexSpec) error
	DropIndex(table, index string) error
	Table(name string) (*Table, bool)
	TableNames() []string
	Insert(table string, row Row) (int64, error)
	Delete(table string, id int64) error
	Begin() *Tx
	Stats() Stats
	Kind() string
	Close() error
}

var (
	_ Engine = (*DB)(nil)
	_ Engine = (*FileEngine)(nil)
)
