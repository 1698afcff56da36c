// Package shard is a walorder fixture for the shard tier: raw WAL append /
// pipeline enqueue orderings in every shape the analyzer must flag, allow,
// or honor a suppression for. It imports the real wal and pipeline
// packages so the receiver types match production exactly.
package shard

import (
	"sync"

	"repro/internal/pipeline"
	"repro/internal/wal"
)

type mutation struct{ n int }

// Shard mirrors the real shard's relevant fields.
type Shard struct {
	walMu sync.Mutex
	wal   *wal.Log
	pipe  *pipeline.Pipeline[mutation]
}

// GoodOrdered is the production pattern: append under walMu, then enqueue
// in the same critical section.
func (s *Shard) GoodOrdered(payload []byte, m mutation) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.wal.Append(payload); err != nil {
		return err
	}
	return s.pipe.Enqueue(m, false)
}

// appendLocked is the one raw append: exempt by name because its callers
// hold walMu, which the analyzer checks at each call instead.
func (s *Shard) appendLocked(payload []byte) (uint64, error) {
	return s.wal.Append(payload)
}

// GoodAppendInner appends through the helper under the lock, which
// dominates the enqueue like a raw Append would.
func (s *Shard) GoodAppendInner(payload []byte, m mutation) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.appendLocked(payload); err != nil {
		return err
	}
	return s.pipe.Enqueue(m, false)
}

// BadAppendInnerUnlocked calls the helper without the lock it assumes.
func (s *Shard) BadAppendInnerUnlocked(payload []byte) error {
	_, err := s.appendLocked(payload) // want `WAL append outside the walMu critical section`
	return err
}

// GoodNoWAL enqueues on the wal == nil fast path: no ordering needed.
func (s *Shard) GoodNoWAL(m mutation) error {
	if s.wal == nil {
		return s.pipe.Enqueue(m, false)
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if _, err := s.wal.Append(nil); err != nil {
		return err
	}
	return s.pipe.Enqueue(m, false)
}

// Submit is the designated post-log submit: the LSN comes from the
// caller's Log, and the caller (the host, under mutMu) owes the ordering.
func (s *Shard) Submit(m mutation, lsn uint64) error {
	m.n = int(lsn)
	return s.pipe.Enqueue(m, false)
}

// BadSubmitLookalike enqueues a caller-logged group outside the designated
// function: the exemption is by name, not by shape.
func (s *Shard) BadSubmitLookalike(m mutation, lsn uint64) error {
	m.n = int(lsn)
	return s.pipe.Enqueue(m, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadAppendUnlocked appends outside the critical section.
func (s *Shard) BadAppendUnlocked(payload []byte) error {
	_, err := s.wal.Append(payload) // want `WAL append outside the walMu critical section`
	return err
}

// BadEnqueueFirst enqueues before anything was appended under the lock.
func (s *Shard) BadEnqueueFirst(payload []byte, m mutation) error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.pipe.Enqueue(m, false); err != nil { // want `pipeline enqueue not dominated by a WAL append`
		return err
	}
	_, err := s.wal.Append(payload)
	return err
}

// BadEnqueueNoLock enqueues with no lock and no nil check at all.
func (s *Shard) BadEnqueueNoLock(m mutation) error {
	return s.pipe.Enqueue(m, false) // want `pipeline enqueue not dominated by a WAL append`
}

// BadUnlockBetween releases walMu between append and enqueue: another
// writer can interleave, so the append no longer dominates.
func (s *Shard) BadUnlockBetween(payload []byte, m mutation) error {
	s.walMu.Lock()
	if _, err := s.wal.Append(payload); err != nil {
		s.walMu.Unlock()
		return err
	}
	s.walMu.Unlock()
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.pipe.Enqueue(m, false) // want `pipeline enqueue not dominated by a WAL append`
}

// SuppressedReplay is the reviewed recovery exception: replay enqueues
// directly because the WAL is the source, not the destination.
func (s *Shard) SuppressedReplay(m mutation) error {
	//deepdb:walordered recovery replays from the log itself; ordering is the log order
	return s.pipe.Enqueue(m, false)
}

// GoodNonNilBranch shows the complementary nil refinement: inside the
// != nil branch an unordered enqueue is still flagged.
func (s *Shard) GoodNonNilBranch(m mutation) error {
	if s.wal != nil {
		return s.pipe.Enqueue(m, false) // want `pipeline enqueue not dominated by a WAL append`
	}
	return s.pipe.Enqueue(m, false)
}
