// Package deepdb is a walorder fixture for the facade: the broadcast of
// one mutation group into every shard, in every shape the analyzer must
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
	mutMu  sync.Mutex
	shards []*shard.Shard
}

// GoodBroadcast is the production pattern: log everywhere, then submit
// everywhere, inside one mutMu critical section.
func (db *DB) GoodBroadcast(muts []ensemble.Mutation) error {
	db.mutMu.Lock()
	defer db.mutMu.Unlock()
	lsns := make([]uint64, len(db.shards))
	for i, sh := range db.shards {
		lsn, err := sh.Log(muts)
		if err != nil {
			return err
		}
		lsns[i] = lsn
	}
	for i, sh := range db.shards {
		if err := sh.Submit(muts, lsns[i], false); err != nil {
			return err
		}
	}
	return nil
}

// GoodUnrelated calls shard methods outside the protocol without the lock.
func (db *DB) GoodUnrelated() uint64 {
	var sum uint64
	for _, sh := range db.shards {
		sum += sh.AppliedLSN()
	}
	return sum
}

// BadLogUnlocked logs with no broadcast lock: two producers could log in
// one order on shard 0 and the other order on shard 1.
func (db *DB) BadLogUnlocked(muts []ensemble.Mutation) (uint64, error) {
	return db.shards[0].Log(muts) // want `shard Log outside the mutMu critical section`
}

// BadSubmitAfterUnlock releases mutMu between the log and submit phases:
// another broadcast can interleave, so LSN order no longer fixes apply
// order.
func (db *DB) BadSubmitAfterUnlock(muts []ensemble.Mutation) error {
	db.mutMu.Lock()
	lsn, err := db.shards[0].Log(muts)
	db.mutMu.Unlock()
	if err != nil {
		return err
	}
	return db.shards[0].Submit(muts, lsn, false) // want `shard Submit outside the mutMu critical section`
}

// BadSubmitUnlocked submits without ever taking the broadcast lock.
func (db *DB) BadSubmitUnlocked(muts []ensemble.Mutation) error {
	return db.shards[0].Submit(muts, 0, false) // want `shard Submit outside the mutMu critical section`
}

// BadWrongLock holds a lock that is not the broadcast lock.
func (db *DB) BadWrongLock(muts []ensemble.Mutation) error {
	var otherMu sync.Mutex
	otherMu.Lock()
	defer otherMu.Unlock()
	return db.shards[0].Submit(muts, 0, false) // want `shard Submit outside the mutMu critical section`
}

// SuppressedSingleProducer is a reviewed exception.
func (db *DB) SuppressedSingleProducer(muts []ensemble.Mutation) error {
	//deepdb:walordered fixture: a single-producer tool owns the shard exclusively
	return db.shards[0].Submit(muts, 0, false)
}
