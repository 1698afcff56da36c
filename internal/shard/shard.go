// Package shard owns the write machinery of the facade's one serving
// ensemble: a WAL replayed on construction and checkpointed by Save, an
// update queue whose applier coalesces mutation groups into batches,
// copy-on-write apply, and publication of each changed ensemble through
// an atomic snapshot pointer and the host's publication hook.
//
// The paper's incremental updates (Section 5.2) touch whichever ensemble
// members cover a mutated row, so the shard holds the whole ensemble —
// members, base tables, write index and drift tracker — and every
// mutation group enters it through one door, Submit, after Log gave it
// its WAL position.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ensemble"
	"repro/internal/pipeline"
	"repro/internal/wal"
)

// snapshot is one immutable published state of the shard. It is never
// mutated after publication — the applier clones and publishes a
// successor — so readers use it without coordination.
type snapshot struct {
	ens *ensemble.Ensemble
}

// Config sizes the shard's update machinery.
type Config struct {
	// QueueSize and MaxBatch bound the update queue and the coalesced apply
	// batch (defaults 1024 / 256).
	QueueSize int
	MaxBatch  int
	// WALDir, when set, gives the shard a durable log; existing records
	// past the checkpoint are replayed on construction.
	WALDir     string
	Durability wal.Durability
}

// closeTimeout bounds the drain on Close: past it Close reports a timeout
// instead of hanging a shutdown behind a stuck applier (with a WAL the
// undrained queue is recovered by the next open).
const closeTimeout = 30 * time.Second

// Group is one unit of the applier's input: the mutations of one
// caller-level operation, applied as one indivisible unit, plus the
// WAL position they were logged at (0 without a WAL).
type Group struct {
	Muts []ensemble.Mutation
	lsn  uint64
}

// Shard is the only owner of the write machinery: the ensemble served
// through an atomic snapshot pointer, a WAL that is replayed on
// construction and checkpointed by the host's Save, and an update pipeline
// applying mutation groups to copy-on-write clones.
type Shard struct {
	cfg Config

	// snap is the current published snapshot; stored only by New and
	// publishLocked (deepdb-lint enforces it).
	snap atomic.Pointer[snapshot]

	// applyMu serializes apply+publish (applyGroups, Swap) and guards
	// tableVer and onPublish.
	applyMu sync.Mutex
	// tableVer counts applied mutation batches per written base table — the
	// consistency token of an optimistic re-learn (drift's own counters
	// miss FK factor bumps on One-side tables).
	tableVer  map[string]uint64
	onPublish func(ens *ensemble.Ensemble, batch bool)

	// pipe is the update pipeline; its applier goroutine starts with the
	// first Submit, so a shard that only serves reads runs none.
	pipe *pipeline.Pipeline[Group]

	// walMu serializes appends; applyLSN is the highest LSN whose group has
	// been applied and published — the watermark Save checkpoints at. Only
	// applyGroups stores it, and only forwards.
	walMu    sync.Mutex
	wal      *wal.Log
	applyLSN atomic.Uint64
}

// New builds the shard over ens — members, base tables, rng, write index
// and drift tracker — and replays its WAL if one is configured.
func New(ens *ensemble.Ensemble, cfg Config) (*Shard, error) {
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 1024
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 256
	}
	s := &Shard{cfg: cfg, tableVer: map[string]uint64{}}
	s.pipe = pipeline.New(cfg.QueueSize, cfg.MaxBatch, s.applyGroups)
	s.snap.Store(&snapshot{ens: ens})
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openWAL opens the shard's log and replays every record past the
// checkpoint through the applier's own body, in the applier's batch size.
// Per-mutation apply errors are dropped — on the live path they would only
// have surfaced through a Flush that never ran — but decode failures and
// replaying without attached base tables abort the open.
func (s *Shard) openWAL() error {
	l, err := wal.Open(s.cfg.WALDir, wal.Options{Durability: s.cfg.Durability})
	if err != nil {
		return err
	}
	batch := make([]Group, 0, s.cfg.MaxBatch)
	rerr := l.Replay(func(lsn uint64, payload []byte) error {
		muts, err := wal.DecodeMutations(payload)
		if err != nil {
			return err
		}
		if s.snap.Load().ens.Tables == nil {
			return fmt.Errorf("deepdb: WAL %s has unapplied records but no base tables are attached (open with WithDataDir or WithDataset)", s.cfg.WALDir)
		}
		if batch = append(batch, Group{Muts: muts, lsn: lsn}); len(batch) == s.cfg.MaxBatch {
			s.applyGroups(batch) //nolint:errcheck // deferred-error semantics, see above
			batch = batch[:0]
		}
		return nil
	})
	if rerr != nil {
		l.Close() //nolint:errcheck // the open itself failed
		return rerr
	}
	if len(batch) > 0 {
		s.applyGroups(batch) //nolint:errcheck // deferred-error semantics, see above
	}
	s.wal = l
	return nil
}

// View returns the current published ensemble.
func (s *Shard) View() *ensemble.Ensemble { return s.snap.Load().ens }

// OnPublish installs the host's publication hook: fn runs under the apply
// lock with every ensemble the shard publishes — only a changed one is
// ever published — and batch reports whether an update batch (rather than
// a model swap) produced it. Install it before the first mutation; WAL
// replay during New runs without it.
func (s *Shard) OnPublish(fn func(ens *ensemble.Ensemble, batch bool)) {
	s.applyMu.Lock()
	s.onPublish = fn
	s.applyMu.Unlock()
}

// publishLocked publishes ens as the next snapshot. Callers hold applyMu.
func (s *Shard) publishLocked(ens *ensemble.Ensemble, batch bool) {
	s.snap.Store(&snapshot{ens: ens})
	if s.onPublish != nil {
		s.onPublish(ens, batch)
	}
}

// applyGroups is the applier's body and the only way mutations reach the
// model: the live pipeline hands it each coalesced batch and WAL replay
// feeds it directly. It applies the groups as one copy-on-write batch —
// groups may share a snapshot but are never split across two — publishes,
// and advances the apply watermark to the last group's LSN. The first
// per-mutation failure is returned with its index in the concatenated
// batch. Groups arrive in LSN order (see Log); should a caller break that
// contract the watermark still never moves back — a checkpoint below what
// a saved model contains would let replay apply those records twice.
func (s *Shard) applyGroups(groups []Group) error {
	n := 0
	for _, g := range groups {
		n += len(g.Muts)
	}
	muts := make([]ensemble.Mutation, 0, n)
	for _, g := range groups {
		muts = append(muts, g.Muts...)
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	err := s.applyLocked(muts)
	if lsn := groups[len(groups)-1].lsn; lsn > s.applyLSN.Load() {
		s.applyLSN.Store(lsn)
	}
	return err
}

// applyLocked clones the touched state, applies the batch and publishes. A
// partially failed batch is still published — the mutations that succeeded
// stay applied. A batch in which nothing applied publishes nothing: the
// clone would be bit-identical, and the served ensemble — with every plan
// and result cached against it — stays in place. Callers hold applyMu.
func (s *Shard) applyLocked(muts []ensemble.Mutation) error {
	next := s.snap.Load().ens.CloneForUpdate(muts)
	applied, err := next.Apply(muts)
	if applied > 0 {
		for t := range next.TouchedTables(muts) {
			s.tableVer[t]++
		}
		s.publishLocked(next, true)
	}
	return err
}

// HasCapacity reports whether the update queue has a free slot — the
// host's admission check before a non-blocking write.
func (s *Shard) HasCapacity() bool { return s.pipe.HasCapacity() }

// Log durably appends one mutation group to the shard's WAL without
// queueing it, returning the assigned LSN (0 when the shard has no WAL).
// Paired with Submit it lets the host refuse a group whose append failed
// before the model sees it. Callers must serialize Log/Submit pairs across
// producers (the host's write lock does): LSN order must equal apply order
// or replay would reproduce a different state.
func (s *Shard) Log(muts []ensemble.Mutation) (uint64, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.appendLocked(muts)
}

// appendLocked is the one WAL append (LSN 0 when the shard has no WAL).
// Callers hold walMu.
func (s *Shard) appendLocked(muts []ensemble.Mutation) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	lsn, err := s.wal.Append(wal.EncodeMutations(muts))
	if err != nil {
		return 0, fmt.Errorf("wal %s: %w", s.cfg.WALDir, err)
	}
	return lsn, nil
}

// Submit hands the applier a group previously appended by Log (lsn 0
// without a WAL) — the one door into the model. It blocks when the queue is
// full. Without wait it returns once the group is queued; Flush waits for
// it to be applied and published and reports its apply error. With wait it
// returns once the group is published, with the apply error of the group's
// own batch — the group alone when, as under the host's write lock, no
// other producer submits meanwhile — which no concurrent Flush can collect
// instead. See Log for the serialization contract.
func (s *Shard) Submit(muts []ensemble.Mutation, lsn uint64, wait bool) error {
	return s.pipe.Enqueue(Group{Muts: muts, lsn: lsn}, wait)
}

// Swap runs fn under the apply lock with the current ensemble and the
// per-table applied-batch counters (read-only, valid only inside fn), and
// publishes a non-nil result through the normal publication path as a
// model swap (hot reload, re-learned member), not an update batch.
func (s *Shard) Swap(fn func(cur *ensemble.Ensemble, tableVer map[string]uint64) *ensemble.Ensemble) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if next := fn(s.snap.Load().ens, s.tableVer); next != nil {
		s.publishLocked(next, false)
	}
}

// Publish swaps in a reloaded ensemble (see Swap).
func (s *Shard) Publish(ens *ensemble.Ensemble) {
	s.Swap(func(*ensemble.Ensemble, map[string]uint64) *ensemble.Ensemble { return ens })
}

// Checkpoint truncates the WAL at the given LSN — records at or
// below it are covered by a persisted artifact and must not replay again.
// No-op without a WAL.
func (s *Shard) Checkpoint(lsn uint64) error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Checkpoint(lsn)
}

// AppliedLSN returns the apply watermark (0 without a WAL).
func (s *Shard) AppliedLSN() uint64 { return s.applyLSN.Load() }

// Flush blocks until every group submitted before the call has been applied
// and published, then reports the first deferred apply error. A no-op when
// nothing was ever submitted.
func (s *Shard) Flush(ctx context.Context) error { return s.pipe.Flush(ctx) }

// Close drains the pipeline (bounded by closeTimeout) and closes the WAL.
// Idempotent; the published snapshot stays readable.
func (s *Shard) Close() error {
	err := s.pipe.CloseTimeout(closeTimeout)
	if s.wal != nil {
		if werr := s.wal.Close(); err == nil {
			err = werr
		}
	}
	return err
}

// Stats is a point-in-time health view of the shard.
type Stats struct {
	Queue pipeline.Stats
	// WAL carries the log's own counters (nil without a WAL); the apply
	// watermark is AppliedLSN.
	WAL *wal.Stats
}

// Stats reports the shard's counters.
func (s *Shard) Stats() Stats {
	out := Stats{Queue: s.pipe.Stats()}
	if s.wal != nil {
		ws := s.wal.Stats()
		out.WAL = &ws
	}
	return out
}
