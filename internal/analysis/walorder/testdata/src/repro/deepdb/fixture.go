// Package deepdb is a walorder fixture for the facade: the write of one
// mutation group into the one shard, in every shape the analyzer must
// flag, allow, or honor a suppression for. It imports the real shard and
// ensemble packages so the receiver types match production exactly.
package deepdb

import (
	"sync"

	"repro/internal/ensemble"
	"repro/internal/shard"
)

// DB mirrors the facade handle's relevant fields.
type DB struct {
	mutMu sync.Mutex
	shard *shard.Shard
}

// GoodWrite is the production pattern: log, then submit, inside one mutMu
// critical section.
func (db *DB) GoodWrite(muts []ensemble.Mutation) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	lsn, err := db.shard.Log(muts)
	if err != nil {
		return err
	}
	return db.shard.Submit(muts, lsn, false)
}

// GoodUnrelated calls shard methods outside the protocol without the lock.
func (db *DB) GoodUnrelated() uint64 {
	return db.shard.AppliedLSN()
}

// BadLogUnlocked logs with no write lock: two producers could log in one
// order and submit in the other.
func (db *DB) BadLogUnlocked(muts []ensemble.Mutation) (uint64, error) {
	return db.shard.Log(muts) // want `shard Log outside the mutMu critical section`
}

// BadSubmitAfterUnlock releases mutMu between the log and submit steps:
// another write can interleave, so LSN order no longer fixes apply order.
func (db *DB) BadSubmitAfterUnlock(muts []ensemble.Mutation) error {
	db.mutMu.Lock()
	lsn, err := db.shard.Log(muts)
	db.mutMu.Unlock()
	if err != nil {
		return err
	}
	return db.shard.Submit(muts, lsn, false) // want `shard Submit outside the mutMu critical section`
}

// BadSubmitUnlocked submits without ever taking the write lock.
func (db *DB) BadSubmitUnlocked(muts []ensemble.Mutation) error {
	return db.shard.Submit(muts, 0, false) // want `shard Submit outside the mutMu critical section`
}

// BadWrongLock holds a lock that is not the write lock.
func (db *DB) BadWrongLock(muts []ensemble.Mutation) error {
	var otherMu sync.Mutex
	otherMu.Lock()
	defer otherMu.Unlock()
	return db.shard.Submit(muts, 0, false) // want `shard Submit outside the mutMu critical section`
}

// SuppressedSingleProducer is a reviewed exception.
func (db *DB) SuppressedSingleProducer(muts []ensemble.Mutation) error {
	//deepdb:walordered fixture: a single-producer tool owns the shard exclusively
	return db.shard.Submit(muts, 0, false)
}
