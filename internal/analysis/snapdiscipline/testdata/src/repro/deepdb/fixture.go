// Package deepdb is a snapdiscipline fixture: snapshot publication and
// mutation patterns the analyzer must flag, allow, or honor a suppression
// for. It imports the real ensemble package so the mutating/laundering
// method sets match production exactly. The writer-side shapes
// (constructor store, in-place apply, watermark write) are in
// testdata/writer.
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

// newDB publishes the first view through publishLocked, like the facade.
func newDB(ens *ensemble.Ensemble) *DB {
	db := &DB{}
	db.publishLocked(&snapshot{ens: ens, gen: 1})
	return db
}

// publishLocked is the one publication point (caller holds the view lock
// or is the single-threaded constructor).
func (db *DB) publishLocked(s *snapshot) {
	db.snap.Store(s)
}

// newDBStoring stores directly: there is no construction exemption —
// even the first view goes through publishLocked.
func newDBStoring(ens *ensemble.Ensemble) *DB {
	db := &DB{}
	db.snap.Store(&snapshot{ens: ens, gen: 1}) // want `snapshot published outside the publication function publishLocked`
	return db
}

// GoodRead goes through the single atomic Load.
func (db *DB) GoodRead() uint64 {
	return db.snap.Load().gen
}

// BadStoreElsewhere publishes outside publishLocked.
func (db *DB) BadStoreElsewhere(s *snapshot) {
	db.snap.Store(s) // want `snapshot published outside the publication function publishLocked`
}

// BadAddress leaks the atomic pointer itself.
func (db *DB) BadAddress() *atomic.Pointer[snapshot] {
	return &db.snap // want `direct use of the snap atomic pointer`
}

// BadSwap bypasses the single-publisher protocol.
func (db *DB) BadSwap(s *snapshot) *snapshot {
	return db.snap.Swap(s) // want `direct use of the snap atomic pointer`
}

// BadFieldWrite mutates a possibly published snapshot in place. Both the
// snapshot-immutability rule and the taint walk fire here.
func (db *DB) BadFieldWrite() {
	s := db.snap.Load()
	s.gen = 2 // want `write to field gen of a snapshot` `write through s mutates state reachable from a published snapshot`
}

// BadMutate calls a mutating ensemble method on snapshot-reached state.
func (db *DB) BadMutate() error {
	s := db.snap.Load()
	return s.ens.Insert("t", nil) // want `Insert called on an ensemble reached from a published snapshot`
}

// GoodClone launders through a CoW clone before mutating.
func (db *DB) GoodClone() error {
	s := db.snap.Load()
	clone := s.ens.CloneForUpdate(nil)
	if err := clone.Insert("t", nil); err != nil {
		return err
	}
	db.applyMu.Lock()
	defer db.applyMu.Unlock()
	db.publishLocked(&snapshot{ens: clone, gen: s.gen + 1, lsn: s.lsn})
	return nil
}

// GoodDrift reads the drift tracker through a snapshot: it is shared by
// pointer across clones by design, so taint stops at the field.
func (db *DB) GoodDrift() bool {
	s := db.snap.Load()
	d := s.ens.Drift
	return d != nil
}

// SuppressedStore carries a reviewed justification.
func (db *DB) SuppressedStore(s *snapshot) {
	//deepdb:snapshotsafe fixture demonstrates a reviewed direct store
	db.snap.Store(s)
}
