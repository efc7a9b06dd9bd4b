package reldb

import (
	"errors"
	"fmt"
)

// ErrTxDone is returned by operations on a committed or rolled-back
// transaction.
var ErrTxDone = errors.New("reldb: transaction already finished")

// Tx is a database transaction. Changes are applied to the database
// immediately (so the transaction reads its own writes through the normal
// table handles) and recorded in an undo log; Rollback applies the
// inverse operations in reverse order. Durability follows the logical
// logging discipline: undo operations are themselves logged as
// compensation records, so a WAL replay reconstructs the post-rollback
// state. reldb serializes writers, so transactions are serializable by
// construction.
type Tx struct {
	db   *DB
	undo []mutation
	done bool
}

// Begin starts a transaction.
func (db *DB) Begin() *Tx {
	return &Tx{db: db}
}

// Insert adds a row within the transaction.
func (tx *Tx) Insert(table string, row Row) (int64, error) {
	if tx.done {
		return 0, ErrTxDone
	}
	id, err := tx.db.Insert(table, row)
	if err != nil {
		return 0, err
	}
	tx.undo = append(tx.undo, mutation{op: opInsert, table: table, id: id})
	return id, nil
}

// Update replaces a row within the transaction.
func (tx *Tx) Update(table string, id int64, row Row) error {
	if tx.done {
		return ErrTxDone
	}
	tx.db.mu.Lock()
	old, err := tx.db.updateLocked(table, id, row, true)
	tx.db.mu.Unlock()
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, mutation{op: opUpdate, table: table, id: id, old: old})
	return nil
}

// Delete removes a row within the transaction.
func (tx *Tx) Delete(table string, id int64) error {
	if tx.done {
		return ErrTxDone
	}
	tx.db.mu.Lock()
	old, err := tx.db.deleteLocked(table, id, true)
	tx.db.mu.Unlock()
	if err != nil {
		return err
	}
	tx.undo = append(tx.undo, mutation{op: opDelete, table: table, id: id, old: old})
	return nil
}

// Commit finalizes the transaction.
func (tx *Tx) Commit() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.undo = nil
	return nil
}

// Rollback undoes every operation performed in the transaction, in
// reverse order.
func (tx *Tx) Rollback() error {
	if tx.done {
		return ErrTxDone
	}
	tx.done = true
	tx.db.mu.Lock()
	defer tx.db.mu.Unlock()
	var firstErr error
	for i := len(tx.undo) - 1; i >= 0; i-- {
		m := tx.undo[i]
		var err error
		switch m.op {
		case opInsert:
			_, err = tx.db.deleteLocked(m.table, m.id, true)
		case opUpdate:
			_, err = tx.db.updateLocked(m.table, m.id, m.old, true)
		case opDelete:
			err = tx.db.reinsertLocked(m.table, m.id, m.old)
		default:
			err = fmt.Errorf("reldb: cannot undo op %d", m.op)
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	tx.undo = nil
	return firstErr
}

// reinsertLocked restores a deleted row under its original row ID.
func (db *DB) reinsertLocked(table string, id int64, row Row) error {
	t, exists := db.tables[table]
	if !exists {
		return fmt.Errorf("reldb: no table %q", table)
	}
	stored, err := t.insertAtLocked(id, row)
	if err != nil {
		return err
	}
	if db.logger != nil {
		return db.logger.logMutation(&mutation{op: opInsert, table: table, id: id, row: stored})
	}
	return nil
}
