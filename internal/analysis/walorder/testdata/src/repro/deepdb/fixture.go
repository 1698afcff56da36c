// Package deepdb is a walorder fixture for the facade, the one owner of
// the WAL and the update queue: the write path's append / enqueue
// orderings the analyzer must flag, allow, or honor a suppression for.
// The writer-side shapes (helpers, relocking, name lookalikes, nil
// refinement) are in testdata/writer. It imports
// the real wal and pipeline packages so the receiver types match
// production exactly.
package deepdb

import (
	"sync"

	"repro/internal/pipeline"
	"repro/internal/wal"
)

type group struct {
	n   int
	lsn uint64
}

// DB mirrors the facade handle's relevant fields.
type DB struct {
	mutMu sync.Mutex
	wal   *wal.Log
	pipe  *pipeline.Pipeline[group]
}

// GoodWrite is the production pattern: the no-WAL path enqueues at once;
// otherwise append, then enqueue, inside one mutMu critical section.
func (db *DB) GoodWrite(payload []byte, g group) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if db.wal == nil {
		return db.pipe.Enqueue(g, false)
	}
	lsn, err := db.wal.Append(payload)
	if err != nil {
		return err
	}
	g.lsn = lsn
	return db.pipe.Enqueue(g, false)
}

// GoodNoWAL enqueues on the wal == nil path without any lock: no ordering
// is needed when nothing is logged.
func (db *DB) GoodNoWAL(g group) error {
	if db.wal == nil {
		return db.pipe.Enqueue(g, false)
	}
	return nil
}

// GoodUnrelated uses the queue outside the protocol.
func (db *DB) GoodUnrelated() bool {
	return db.pipe.HasCapacity()
}

// BadAppendUnlocked appends with no write lock: two producers could append
// in one order and enqueue in the other.
func (db *DB) BadAppendUnlocked(payload []byte) error {
	_, err := db.wal.Append(payload) // want `WAL append outside the mutMu critical section`
	return err
}

// BadEnqueueAfterUnlock releases mutMu between the append and the enqueue:
// another write can interleave, so LSN order no longer fixes apply order.
func (db *DB) BadEnqueueAfterUnlock(payload []byte, g group) error {
	db.mutMu.Lock()
	lsn, err := db.wal.Append(payload)
	db.mutMu.Unlock()
	if err != nil {
		return err
	}
	g.lsn = lsn
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadEnqueueUnlocked enqueues with no lock and no nil check at all.
func (db *DB) BadEnqueueUnlocked(g group) error {
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadWrongLock holds a lock that is not the write lock.
func (db *DB) BadWrongLock(payload []byte, g group) error {
	var otherMu sync.Mutex
	otherMu.Lock()
	defer otherMu.Unlock()
	if _, err := db.wal.Append(payload); err != nil { // want `WAL append outside the mutMu critical section`
		return err
	}
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// SuppressedReplay is a reviewed exception: replay feeds the applier from
// the log itself, so the log order is the apply order.
func (db *DB) SuppressedReplay(g group) error {
	//deepdb:walordered fixture: recovery replays from the log itself; ordering is the log order
	return db.pipe.Enqueue(g, false)
}
