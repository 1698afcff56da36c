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

// snapshot is one immutable published state of a shard: its sub-ensemble,
// a publication counter, and the cumulative mutation count. It is never
// mutated after publication — the applier clones and publishes a successor
// — so readers (the host's compose path) use it without coordination.
type snapshot struct {
	ens *ensemble.Ensemble
	gen uint64
	// ops counts every mutation this shard has processed, applied or
	// failed. Failures are deterministic under an identical broadcast
	// stream, so equal ops across shards means equal progress — the
	// host's alignment token for composing a consistent merged view.
	ops uint64
}

// Config sizes one shard's update machinery.
type Config struct {
	// QueueSize and MaxBatch bound the update queue and the coalesced apply
	// batch (defaults 1024 / 256).
	QueueSize int
	MaxBatch  int
	// WALDir, when set, gives the shard a durable log of its own; existing
	// records past the checkpoint are replayed on construction.
	WALDir     string
	Durability wal.Durability
}

// closeTimeout bounds the drain on Close: past it Close reports a timeout
// instead of hanging a shutdown behind a stuck applier (with a WAL the
// undrained queue is recovered by the next open).
const closeTimeout = 30 * time.Second

// Group is one unit of the applier's input: the mutations of one
// caller-level operation, applied as one indivisible unit, plus the
// shard-WAL position they were logged at (0 without a WAL).
type Group struct {
	Muts []ensemble.Mutation
	lsn  uint64
}

// Shard owns one partition of the ensemble and is the only owner of the
// write machinery: a sub-ensemble served through an atomic snapshot
// pointer, a WAL that is replayed on construction and checkpointed by the
// host's Save, and an update pipeline applying mutation groups to
// copy-on-write clones. The facade hosts N >= 1 of them; queries run on the
// host's composed view.
type Shard struct {
	id int
	// members are the global ensemble-member indices the shard serves; nil
	// means the whole ensemble, as given (the one-shard host). total is the
	// member count of the ensemble the partition was computed over.
	members []int
	total   int
	cfg     Config

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
	onPublish func(changed bool)

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

// New builds the shard over the given members (global indices into full;
// nil serves full itself, rng, write index and drift tracker included)
// and replays its WAL if one is configured.
func New(id int, members []int, full *ensemble.Ensemble, cfg Config) (*Shard, error) {
	if cfg.QueueSize < 1 {
		cfg.QueueSize = 1024
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 256
	}
	s := &Shard{id: id, total: len(full.RSPNs), cfg: cfg, tableVer: map[string]uint64{}}
	s.pipe = pipeline.New(cfg.QueueSize, cfg.MaxBatch, s.applyGroups)
	if members != nil {
		s.members = append([]int{}, members...)
	}
	sub, err := s.Carve(full)
	if err != nil {
		return nil, err
	}
	s.snap.Store(&snapshot{ens: sub})
	if cfg.WALDir != "" {
		if err := s.openWAL(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Carve returns the part of full this shard serves: full itself for a
// whole-ensemble shard, otherwise the shard's member subset — refused when
// full does not have the member count the partition was computed over.
func (s *Shard) Carve(full *ensemble.Ensemble) (*ensemble.Ensemble, error) {
	if s.members == nil {
		return full, nil
	}
	if len(full.RSPNs) != s.total {
		return nil, fmt.Errorf("shard %d: model has %d members, the partition was computed over %d (re-partition requires a restart)", s.id, len(full.RSPNs), s.total)
	}
	sub, err := full.Subset(s.members)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", s.id, err)
	}
	return sub, nil
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

// Members returns the shard's global member indices (sorted; do not
// mutate); nil for a whole-ensemble shard.
func (s *Shard) Members() []int { return s.members }

// View returns the current published state: the sub-ensemble, the
// publication counter and the alignment token.
func (s *Shard) View() (ens *ensemble.Ensemble, gen, ops uint64) {
	sn := s.snap.Load()
	return sn.ens, sn.gen, sn.ops
}

// OnPublish installs the host's publication hook: fn runs under the apply
// lock after every snapshot this shard publishes, with changed reporting
// whether the served ensemble differs from the previous snapshot's (false
// for a batch in which nothing applied — only ops moved). Install it
// before the first mutation; WAL replay during New runs without it.
func (s *Shard) OnPublish(fn func(changed bool)) {
	s.applyMu.Lock()
	s.onPublish = fn
	s.applyMu.Unlock()
}

// publishLocked publishes the next snapshot. Callers hold applyMu.
func (s *Shard) publishLocked(ens *ensemble.Ensemble, ops uint64) {
	cur := s.snap.Load()
	s.snap.Store(&snapshot{ens: ens, gen: cur.gen + 1, ops: ops})
	if s.onPublish != nil {
		s.onPublish(ens != cur.ens)
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
// stay applied. A batch in which nothing applied republishes the current
// ensemble (the clone would be bit-identical) but still advances ops by
// the processed count, or shards whose streams contain the same failing
// mutation would never realign. Callers hold applyMu.
func (s *Shard) applyLocked(muts []ensemble.Mutation) error {
	cur := s.snap.Load()
	next := cur.ens.CloneForUpdate(muts)
	applied, err := next.Apply(muts)
	if applied == 0 {
		next = cur.ens
	} else {
		for t := range next.TouchedTables(muts) {
			s.tableVer[t]++
		}
	}
	s.publishLocked(next, cur.ops+uint64(len(muts)))
	return err
}

// HasCapacity reports whether the update queue has a free slot — the
// host's admission check before a non-blocking broadcast.
func (s *Shard) HasCapacity() bool { return s.pipe.HasCapacity() }

// Log durably appends one mutation group to the shard's WAL without
// queueing it, returning the assigned LSN (0 when the shard has no WAL).
// Paired with Submit it lets the host split a broadcast into a
// log-everywhere phase and a submit-everywhere phase, so a WAL failure on
// shard k surfaces before any shard has been mutated. Callers must
// serialize Log/Submit pairs across producers (the host's broadcast lock
// does): LSN order must equal apply order or replay would reproduce a
// different state.
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
// own batch — the group alone when, as under the host's broadcast lock, no
// other producer submits meanwhile — which no concurrent Flush can collect
// instead. See Log for the serialization contract.
func (s *Shard) Submit(muts []ensemble.Mutation, lsn uint64, wait bool) error {
	return s.pipe.Enqueue(Group{Muts: muts, lsn: lsn}, wait)
}

// Swap runs fn under the apply lock with the current ensemble and the
// per-table applied-batch counters (read-only, valid only inside fn), and
// publishes a non-nil result through the normal publication path. ops is
// preserved: a model swap (hot reload, re-learned member, refreshed
// dependency statistics) is not stream progress, and keeping the token
// lets the host hold its previous composed view until every shard has
// swapped — readers see all-old or all-new, never a mix.
func (s *Shard) Swap(fn func(cur *ensemble.Ensemble, tableVer map[string]uint64) *ensemble.Ensemble) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.snap.Load()
	if next := fn(cur.ens, s.tableVer); next != nil {
		s.publishLocked(next, cur.ops)
	}
}

// Publish swaps in a reloaded sub-ensemble (see Swap).
func (s *Shard) Publish(ens *ensemble.Ensemble) {
	s.Swap(func(*ensemble.Ensemble, map[string]uint64) *ensemble.Ensemble { return ens })
}

// Checkpoint truncates the shard's WAL at the given LSN — records at or
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

// Stats is a point-in-time health view of one shard.
type Stats struct {
	ID      int
	Members []int
	Gen     uint64
	Ops     uint64
	Queue   pipeline.Stats
	// WALDir is the log directory and WALAppliedLSN the apply watermark
	// ("" / 0 without a WAL); WAL carries the log's own counters when one
	// is attached.
	WALDir        string
	WALAppliedLSN uint64
	WAL           *wal.Stats
}

// Stats reports the shard's counters.
func (s *Shard) Stats() Stats {
	_, gen, ops := s.View()
	out := Stats{ID: s.id, Members: s.members, Gen: gen, Ops: ops}
	out.Queue = s.pipe.Stats()
	if s.wal != nil {
		ws := s.wal.Stats()
		out.WAL = &ws
		out.WALDir = s.cfg.WALDir
		out.WALAppliedLSN = s.applyLSN.Load()
	}
	return out
}
