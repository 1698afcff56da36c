// Package shard is a snapdiscipline fixture for the shard, the owner of
// apply-and-publish: a snapshot behind an atomic pointer with New as its
// construction point and publishLocked as the only other Store site.
package shard

import (
	"sync"
	"sync/atomic"

	"repro/internal/ensemble"
)

// snapshot mirrors a shard's immutable published view: the sub-ensemble,
// the publication counter and the stream-alignment token.
type snapshot struct {
	ens *ensemble.Ensemble
	gen uint64
	ops uint64
}

// Shard mirrors the relevant fields of the real shard.
type Shard struct {
	applyMu sync.Mutex
	snap    atomic.Pointer[snapshot]
}

// New may Store: construction publishes the first snapshot.
func New(ens *ensemble.Ensemble) *Shard {
	s := &Shard{}
	s.snap.Store(&snapshot{ens: ens})
	return s
}

// publishLocked is the one publication point (caller holds applyMu).
func (s *Shard) publishLocked(next *snapshot) {
	s.snap.Store(next)
}

// GoodView reads through the single atomic Load.
func (s *Shard) GoodView() (uint64, uint64) {
	sn := s.snap.Load()
	return sn.gen, sn.ops
}

// GoodApply launders the published ensemble through a CoW clone, then
// publishes the clone with the advanced ops token.
func (s *Shard) GoodApply(muts []ensemble.Mutation) error {
	cur := s.snap.Load()
	next := cur.ens.CloneForUpdate(muts)
	if _, err := next.Apply(muts); err != nil {
		return err
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.publishLocked(&snapshot{ens: next, gen: cur.gen + 1, ops: cur.ops + uint64(len(muts))})
	return nil
}

// BadStoreElsewhere publishes outside New/publishLocked.
func (s *Shard) BadStoreElsewhere(next *snapshot) {
	s.snap.Store(next) // want `snapshot published outside a construction/publication function`
}

// BadOpsWrite advances the alignment token in place — a torn view for any
// router that already composed this snapshot.
func (s *Shard) BadOpsWrite() {
	sn := s.snap.Load()
	sn.ops++ // want `write to field ops of a snapshot` `write through sn mutates state reachable from a published snapshot`
}

// BadApplyInPlace mutates the published sub-ensemble under readers.
func (s *Shard) BadApplyInPlace(muts []ensemble.Mutation) error {
	sn := s.snap.Load()
	_, err := sn.ens.Apply(muts) // want `Apply called on an ensemble reached from a published snapshot`
	return err
}

// BadSwap bypasses the single-publisher protocol.
func (s *Shard) BadSwap(next *snapshot) *snapshot {
	return s.snap.Swap(next) // want `direct use of the snap atomic pointer`
}
