// Package deepdb is a walorder fixture for the facade's writer side: the
// shapes the single whole-ensemble writer took over from the former
// per-shard writer (an append helper, relocking, a Submit lookalike,
// enqueue-first, the non-nil branch), none of which is exempt by name any
// more. It imports the real wal and pipeline packages so the receiver
// types match production exactly.
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

// GoodOrdered is the production pattern: append under mutMu, then enqueue
// in the same critical section.
func (db *DB) GoodOrdered(payload []byte, g group) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	lsn, err := db.wal.Append(payload)
	if err != nil {
		return err
	}
	g.lsn = lsn
	return db.pipe.Enqueue(g, false)
}

// GoodNoWAL enqueues on the wal == nil fast path and orders the logged
// path under the lock.
func (db *DB) GoodNoWAL(payload []byte, g group) error {
	if db.wal == nil {
		return db.pipe.Enqueue(g, false)
	}
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if _, err := db.wal.Append(payload); err != nil {
		return err
	}
	return db.pipe.Enqueue(g, false)
}

// appendLocked is a helper that assumes its callers hold mutMu. No name is
// exempt: the append inside it is checked like any other.
func (db *DB) appendLocked(payload []byte) (uint64, error) {
	return db.wal.Append(payload) // want `WAL append outside the mutMu critical section`
}

// BadEnqueueAfterHelper appends through the helper: the helper's append
// does not dominate the enqueue here.
func (db *DB) BadEnqueueAfterHelper(payload []byte, g group) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if _, err := db.appendLocked(payload); err != nil {
		return err
	}
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadRelockBetween releases and retakes mutMu between append and enqueue:
// the append no longer dominates under the current hold.
func (db *DB) BadRelockBetween(payload []byte, g group) error {
	db.mutMu.Lock()
	if _, err := db.wal.Append(payload); err != nil {
		db.mutMu.Unlock()
		return err
	}
	db.mutMu.Unlock()
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// Submit enqueues a group its caller logged: no name is exempt, so the
// enqueue is flagged like any other without a dominating append.
func (db *DB) Submit(g group, lsn uint64) error {
	g.lsn = lsn
	return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadEnqueueFirst enqueues before anything was appended under the lock.
func (db *DB) BadEnqueueFirst(payload []byte, g group) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	if err := db.pipe.Enqueue(g, false); err != nil { // want `pipeline enqueue not dominated by a WAL append`
		return err
	}
	_, err := db.wal.Append(payload)
	return err
}

// BadNonNilBranch shows the complementary nil refinement: inside the
// != nil branch an unordered enqueue is still flagged.
func (db *DB) BadNonNilBranch(g group) error {
	if db.wal != nil {
		return db.pipe.Enqueue(g, false) // want `pipeline enqueue not dominated by a WAL append`
	}
	return db.pipe.Enqueue(g, false)
}

// SuppressedReplay is the reviewed recovery exception: replay enqueues
// directly because the WAL is the source, not the destination.
func (db *DB) SuppressedReplay(g group) error {
	//deepdb:walordered fixture: recovery replays from the log itself; ordering is the log order
	return db.pipe.Enqueue(g, false)
}
