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

// ErrQueueFull is what a host sheds a mutation group with when HasCapacity
// reports a full update queue and the caller asked not to block.
var ErrQueueFull = pipeline.ErrQueueFull

// snapshot is one immutable published state of a shard: its sub-ensemble,
// a publication counter, and the cumulative mutation count. It is never
// mutated after publication — the applier clones and publishes a successor
// — so readers (the host's compose path, remote /eval handlers) use it
// without coordination.
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
	// CloseTimeout bounds the drain on Close (<= 0 waits without bound).
	CloseTimeout time.Duration
}

// Group is one queue item: the mutations of one caller-level operation,
// applied as one indivisible unit, plus the shard-WAL position they were
// logged at (0 without a WAL).
type Group struct {
	Muts []ensemble.Mutation
	lsn  uint64
}

// Shard owns one partition of the ensemble and is the only owner of the
// write machinery: a sub-ensemble served through an atomic snapshot
// pointer, a WAL that is replayed on construction and checkpointed by the
// host's Save, and an update pipeline applying mutation groups to
// copy-on-write clones. The facade hosts N >= 1 of them; queries run on the
// host's composed view (or reach the shard through the remote /eval
// interface).
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

	// applyMu serializes apply+publish (the applier, ApplyLogged, Swap) and
	// guards tableVer and onPublish.
	applyMu sync.Mutex
	// tableVer counts applied mutation batches per written base table — the
	// consistency token of an optimistic re-learn (drift's own counters
	// miss FK factor bumps on One-side tables).
	tableVer  map[string]uint64
	onPublish func(changed bool)

	pipeMu sync.Mutex
	pipe   *pipeline.Pipeline[Group]
	closed bool

	// walMu serializes appends; applyLSN is the highest LSN whose group has
	// been applied and published — the watermark Save checkpoints at.
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
// checkpoint, batching groups like the applier would. Per-mutation apply
// errors are dropped — on the asynchronous path they would only have
// surfaced through a Flush that never ran — but decode failures and
// replaying without attached base tables abort the open.
func (s *Shard) openWAL() error {
	l, err := wal.Open(s.cfg.WALDir, wal.Options{Durability: s.cfg.Durability})
	if err != nil {
		return err
	}
	var pending []ensemble.Mutation
	groups := 0
	var last uint64
	flush := func() {
		if len(pending) == 0 {
			return
		}
		s.applyMu.Lock()
		s.applyLocked(pending) //nolint:errcheck // deferred-async semantics
		s.storeApplyLSN(last)
		s.applyMu.Unlock()
		pending, groups = pending[:0], 0
	}
	rerr := l.Replay(func(lsn uint64, payload []byte) error {
		muts, err := wal.DecodeMutations(payload)
		if err != nil {
			return err
		}
		if s.snap.Load().ens.Tables == nil {
			return fmt.Errorf("deepdb: WAL %s has unapplied records but no base tables are attached (open with WithDataDir or WithDataset)", s.cfg.WALDir)
		}
		pending = append(pending, muts...)
		groups++
		last = lsn
		if groups >= s.cfg.MaxBatch {
			flush()
		}
		return nil
	})
	if rerr != nil {
		l.Close() //nolint:errcheck // the open itself failed
		return rerr
	}
	flush()
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

// storeApplyLSN advances applyLSN monotonically: the watermark must never
// move back — a checkpoint at a too-high LSN would drop unapplied records.
func (s *Shard) storeApplyLSN(lsn uint64) {
	for {
		cur := s.applyLSN.Load()
		if lsn <= cur || s.applyLSN.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// pipeline lazily starts the background applier. Queue items are mutation
// groups: the applier may coalesce groups but never splits one across
// published snapshots.
func (s *Shard) pipeline() (*pipeline.Pipeline[Group], error) {
	s.pipeMu.Lock()
	defer s.pipeMu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("shard %d: closed", s.id)
	}
	if s.pipe == nil {
		s.pipe = pipeline.New(s.cfg.QueueSize, s.cfg.MaxBatch, func(groups []Group) error {
			n := 0
			var last uint64
			for _, g := range groups {
				n += len(g.Muts)
				if g.lsn > last {
					last = g.lsn
				}
			}
			muts := make([]ensemble.Mutation, 0, n)
			for _, g := range groups {
				muts = append(muts, g.Muts...)
			}
			return s.ApplyLogged(muts, last)
		})
	}
	return s.pipe, nil
}

// HasCapacity reports whether the update queue has a free slot — the
// host's admission check before a non-blocking broadcast.
func (s *Shard) HasCapacity() bool {
	pipe, err := s.pipeline()
	if err != nil {
		return false
	}
	return pipe.HasCapacity()
}

// Log durably appends one mutation group to the shard's WAL without
// queueing it, returning the assigned LSN (0 when the shard has no WAL).
// Paired with EnqueueLogged or ApplyLogged it lets the host split a
// broadcast into a log-everywhere phase and a submit-everywhere phase, so a
// WAL failure on shard k surfaces before any shard has been mutated.
// Callers must serialize Log/submit pairs across producers (the host's
// broadcast lock does): LSN order must equal apply order or replay would
// reproduce a different state.
func (s *Shard) Log(muts []ensemble.Mutation) (uint64, error) {
	if s.wal == nil {
		return 0, nil
	}
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return s.appendLocked(muts)
}

// appendLocked is the one WAL append. Callers hold walMu.
func (s *Shard) appendLocked(muts []ensemble.Mutation) (uint64, error) {
	lsn, err := s.wal.Append(wal.EncodeMutations(muts))
	if err != nil {
		return 0, fmt.Errorf("wal %s: %w", s.cfg.WALDir, err)
	}
	return lsn, nil
}

// EnqueueLogged queues a group previously appended by Log (lsn 0 for
// WAL-less or volatile-by-policy groups), blocking when the queue is
// full. See Log for the serialization contract.
func (s *Shard) EnqueueLogged(muts []ensemble.Mutation, lsn uint64) error {
	pipe, err := s.pipeline()
	if err != nil {
		return err
	}
	return pipe.Enqueue(Group{Muts: muts, lsn: lsn})
}

// ApplyLogged applies and publishes one group previously appended by Log
// before returning (the synchronous counterpart of EnqueueLogged, and the
// applier's own body), reporting the first per-mutation failure.
func (s *Shard) ApplyLogged(muts []ensemble.Mutation, lsn uint64) error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	err := s.applyLocked(muts)
	s.storeApplyLSN(lsn)
	return err
}

// ApplySync logs and applies one group before returning — the remote
// /apply path, which keeps a replica in lockstep with the router's
// broadcast order (the router serializes broadcasts, so arrival order is
// stream order). walMu is held across append+apply so concurrent callers
// reach the log and the model in the same order.
func (s *Shard) ApplySync(muts []ensemble.Mutation) error {
	var lsn uint64
	if s.wal != nil {
		s.walMu.Lock()
		defer s.walMu.Unlock()
		var err error
		if lsn, err = s.appendLocked(muts); err != nil {
			return err
		}
	}
	return s.ApplyLogged(muts, lsn)
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

// Flush blocks until every group enqueued before the call has been applied
// and published, then reports the first deferred apply error. A no-op when
// nothing was ever enqueued.
func (s *Shard) Flush(ctx context.Context) error {
	s.pipeMu.Lock()
	pipe := s.pipe
	s.pipeMu.Unlock()
	if pipe == nil {
		return nil
	}
	return pipe.Flush(ctx)
}

// Close drains the pipeline (bounded by Config.CloseTimeout) and closes
// the WAL. Idempotent; the published snapshot stays readable.
func (s *Shard) Close() error {
	s.pipeMu.Lock()
	if s.closed {
		s.pipeMu.Unlock()
		return nil
	}
	s.closed = true
	pipe := s.pipe
	s.pipeMu.Unlock()
	var err error
	if pipe != nil {
		err = pipe.CloseTimeout(s.cfg.CloseTimeout)
	}
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
	s.pipeMu.Lock()
	pipe := s.pipe
	s.pipeMu.Unlock()
	if pipe != nil {
		out.Queue = pipe.Stats()
	}
	if s.wal != nil {
		ws := s.wal.Stats()
		out.WAL = &ws
		out.WALDir = s.cfg.WALDir
		out.WALAppliedLSN = s.applyLSN.Load()
	}
	return out
}
