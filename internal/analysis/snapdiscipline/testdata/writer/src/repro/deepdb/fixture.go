// Package deepdb is a snapdiscipline fixture for the facade's writer side,
// the owner of apply-and-publish: the shapes the single whole-ensemble
// writer took over from the former per-shard writer. The constructor is no
// longer a Store site; publishLocked is the only one.
package deepdb

import (
	"sync"
	"sync/atomic"

	"repro/internal/ensemble"
)

// snapshot mirrors the facade's immutable published view: the ensemble,
// the publication counter and the apply watermark.
type snapshot struct {
	ens *ensemble.Ensemble
	gen uint64
	lsn uint64
}

// DB mirrors the facade's relevant fields.
type DB struct {
	applyMu sync.Mutex
	snap    atomic.Pointer[snapshot]
}

// New is a constructor that stores directly: no name is exempt, the
// conventional constructor name included.
func New(ens *ensemble.Ensemble) *DB {
	db := &DB{}
	db.snap.Store(&snapshot{ens: ens}) // want `snapshot published outside the publication function publishLocked`
	return db
}

// publishLocked is the one publication point (caller holds applyMu).
func (db *DB) publishLocked(next *snapshot) {
	db.snap.Store(next)
}

// GoodView reads through the single atomic Load.
func (db *DB) GoodView() (uint64, uint64) {
	s := db.snap.Load()
	return s.gen, s.lsn
}

// GoodApply launders the published ensemble through a CoW clone, then
// publishes the clone with the advanced watermark.
func (db *DB) GoodApply(muts []ensemble.Mutation, lsn uint64) error {
	cur := db.snap.Load()
	next := cur.ens.CloneForUpdate(muts)
	if _, err := next.Apply(muts); err != nil {
		return err
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.publishLocked(&snapshot{ens: next, gen: cur.gen + 1, lsn: lsn})
	return nil
}

// BadStoreElsewhere publishes outside publishLocked.
func (db *DB) BadStoreElsewhere(next *snapshot) {
	db.snap.Store(next) // want `snapshot published outside the publication function publishLocked`
}

// BadWatermarkWrite advances the watermark in place: a reader holding the
// snapshot would see its state paired with a position it does not contain.
func (db *DB) BadWatermarkWrite() {
	s := db.snap.Load()
	s.lsn++ // want `write to field lsn of a snapshot` `write through s mutates state reachable from a published snapshot`
}

// BadApplyInPlace mutates the published ensemble under readers.
func (db *DB) BadApplyInPlace(muts []ensemble.Mutation) error {
	s := db.snap.Load()
	_, err := s.ens.Apply(muts) // want `Apply called on an ensemble reached from a published snapshot`
	return err
}

// BadSwap bypasses the single-publisher protocol.
func (db *DB) BadSwap(next *snapshot) *snapshot {
	return db.snap.Swap(next) // want `direct use of the snap atomic pointer`
}
