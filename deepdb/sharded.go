package deepdb

// sharded.go is what is specific to hosting more than one shard: the
// partition of the ensemble into table-group shards (internal/shard) and
// the replica offload. Everything else — the read API, the broadcast write
// path, Flush/Save/Reload — is the host's, identical at every shard count
// (see deepdb.go and updates.go).
//
// Query execution on the composed view runs the unchanged compile +
// Theorem-2/inclusion-exclusion machinery of internal/core, so results are
// bit-identical to one-shard execution by construction; the equivalence
// tests in sharded_test.go prove it per query class.
//
// Replica processes (started with `deepdb shard`, bound with
// WithShardPeers) are a pure offload: evaluation chunks of members owned
// by a bound shard go over HTTP, and any failure — connection, ops skew,
// framing — falls back to the local model, keeping bit-identity
// unconditional.

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/shard"
)

// ShardedDB is the host over a partition of the ensemble: the same API as
// DB — one implementation — with every shard serving a subset of the
// members behind its own update queue and WAL (subdirectory shard-<i> of
// the WAL dir), plus optional replica processes that evaluation is
// offloaded to.
type ShardedDB struct {
	host

	// peers[i] is the replica client bound to shard i (nil when none); the
	// slice itself is nil without WithShardPeers.
	peers []*shard.Client
	// Cumulative remote-evaluation counters, folded in from each retired
	// composed view's evaluator.
	peerHits  atomic.Uint64
	peerFalls atomic.Uint64

	// probeStop/probeWG control the background peer health prober.
	probeStop chan struct{}
	probeWG   sync.WaitGroup
	probeOnce sync.Once
}

// LearnDatasetSharded is LearnDataset with the resulting ensemble
// partitioned into WithShards(n) shards.
func LearnDatasetSharded(ctx context.Context, s *Schema, data Dataset, opts ...Option) (*ShardedDB, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	ens, err := ensemble.Build(ctx, s, data, cfg.ens)
	if err != nil {
		return nil, err
	}
	return newShardedDB(ens, cfg)
}

// OpenSharded is Open with the loaded ensemble partitioned into
// WithShards(n) shards. With WithWAL, each shard replays its own log
// (subdirectory shard-<i> of the WAL dir) before serving; a set of logs
// that replays to different positions is refused.
func OpenSharded(ctx context.Context, modelPath string, opts ...Option) (*ShardedDB, error) {
	cfg := defaultConfig()
	cfg.apply(opts)
	ens, err := loadModel(ctx, modelPath, cfg)
	if err != nil {
		return nil, err
	}
	return newShardedDB(ens, cfg)
}

func newShardedDB(ens *ensemble.Ensemble, cfg config) (*ShardedDB, error) {
	if cfg.driftThresholds().Enabled() {
		return nil, fmt.Errorf("deepdb: drift-triggered re-learning (WithDriftThreshold/WithDriftMeanShift) needs the whole ensemble in one shard; drop the trigger or serve unsharded")
	}
	var shards []*shard.Shard
	for i, m := range shard.Partition(ens, cfg.shards) {
		walDir := ""
		if cfg.walDir != "" {
			walDir = filepath.Join(cfg.walDir, fmt.Sprintf("shard-%d", i))
		}
		sh, err := shard.New(i, m, ens, cfg.shardConfig(walDir))
		if err != nil {
			for _, prev := range shards {
				prev.Close() //nolint:errcheck // construction already failed
			}
			return nil, err
		}
		shards = append(shards, sh)
	}
	db := &ShardedDB{}
	if len(cfg.shardPeers) > 0 {
		db.peers = make([]*shard.Client, len(shards))
		var copts []shard.ClientOption
		if cfg.peerAttempts > 0 || cfg.peerBackoff > 0 {
			copts = append(copts, shard.WithRetry(cfg.peerAttempts, cfg.peerBackoff))
		}
		if cfg.peerBreakThresh > 0 || cfg.peerBreakCooldown > 0 {
			copts = append(copts, shard.WithBreaker(cfg.peerBreakThresh, cfg.peerBreakCooldown))
		}
		for i := range shards {
			if i < len(cfg.shardPeers) && cfg.shardPeers[i] != "" {
				db.peers[i] = shard.NewClient(cfg.shardPeers[i], copts...)
			}
		}
		db.wire, db.replicate = db.bindPeers, db.forwardPeers
	}
	if err := db.start(cfg, shards, len(ens.RSPNs)); err != nil {
		return nil, err
	}
	db.startProber()
	return db, nil
}

// startProber launches the background peer health prober: every probe
// interval each bound replica's /healthz is checked and the outcome feeds
// its circuit breaker and health flag, so a dead peer's breaker opens (and
// re-closes after heal) even when no query traffic flows. No-op without
// peers or with probing disabled.
func (db *ShardedDB) startProber() {
	if db.peers == nil || db.cfg.peerProbeDisabled {
		return
	}
	interval := db.cfg.peerProbeInterval
	if interval <= 0 {
		interval = defaultPeerProbeInterval
	}
	db.probeStop = make(chan struct{})
	db.probeWG.Add(1)
	go func() {
		defer db.probeWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-db.probeStop:
				return
			case <-t.C:
				for _, c := range db.peers {
					if c == nil {
						continue
					}
					c.Probe(context.Background()) //nolint:errcheck // outcome lands in the breaker and health surfaces
				}
			}
		}
	}()
}

// bindPeers is the host's wire hook: it routes a new view's evaluation
// through the bound replicas, with bindings valid exactly for this ops
// token, and retires the outgoing view's evaluator counters into the
// running totals (a chunk in flight right now may be lost to the count;
// these are observability numbers, not accounting). When the stream
// advanced under an unchanged view (eng is prev's own engine) the existing
// bindings just move to the new token.
func (db *ShardedDB) bindPeers(prev *snapshot, eng *core.Engine, ens *ensemble.Ensemble, ops uint64) {
	if prev != nil {
		if re, ok := prev.eng.Eval.(*shard.RemoteEvaluator); ok {
			if prev.eng == eng {
				re.Advance(ops)
				return
			}
			db.peerHits.Add(re.Hits())
			db.peerFalls.Add(re.Fallbacks())
		}
	}
	re := shard.NewRemoteEvaluator()
	for i, sh := range db.shards {
		c := db.peers[i]
		if c == nil {
			continue
		}
		for j, global := range sh.Members() {
			re.Bind(ens.RSPNs[global], c, j, ops)
		}
	}
	eng.Eval = re
}

// forwardPeers replicates the group to every bound replica, best-effort: a
// failed or slow replica simply falls out of ops sync, its /eval calls
// start answering 409, and the router serves those members locally until
// the operator catches the replica up. Called under mutMu so replicas see
// broadcasts in stream order. Each forward is bounded (the client caps an
// attempt at its per-attempt timeout) and breaker-gated, so a dead replica
// costs the write path nothing once its breaker opens — before this, a
// hung replica could stall every broadcast for the full client timeout.
func (db *ShardedDB) forwardPeers(muts []ensemble.Mutation) {
	for _, c := range db.peers {
		if c == nil {
			continue
		}
		c.Apply(context.Background(), muts) //nolint:errcheck // best-effort offload
	}
}

// Close stops the peer prober, then closes the host: every shard is
// drained (each waiting at most 30s) and its WAL closed. The
// composed snapshot stays queryable; further updates fail. Idempotent.
func (db *ShardedDB) Close() error {
	db.probeOnce.Do(func() {
		if db.probeStop != nil {
			close(db.probeStop)
			db.probeWG.Wait()
		}
	})
	return db.host.Close()
}

// Shards returns the number of partitions serving this DB.
func (db *ShardedDB) Shards() int { return len(db.shards) }

// ShardStat is one shard's health inside ShardStats.
type ShardStat struct {
	// ID is the shard index, Members its global ensemble-member indices.
	ID      int   `json:"id"`
	Members []int `json:"members"`
	// Generation counts the shard's own snapshot publications, Ops the
	// mutations it has processed (the router's alignment token).
	Generation uint64 `json:"generation"`
	Ops        uint64 `json:"ops"`
	// QueueDepth/Enqueued/Applied/Batches/Errors describe the shard's
	// update pipeline; LastError renders its most recent apply failure.
	QueueDepth int    `json:"queue_depth"`
	Enqueued   uint64 `json:"enqueued"`
	Applied    uint64 `json:"applied"`
	Batches    uint64 `json:"-"` // not part of /healthz
	Errors     uint64 `json:"errors"`
	LastError  string `json:"last_error,omitempty"`
	// WALAppliedLSN is the shard log's apply watermark (0 without a WAL);
	// WAL carries the log's counters when one is attached.
	WALAppliedLSN uint64    `json:"wal_applied_lsn,omitempty"`
	WAL           *WALStats `json:"wal,omitempty"`
	// Peer is the bound replica's base URL ("" when none). The fields
	// below describe that binding's health: PeerHealthy is the outcome of
	// the most recent request or probe, PeerState the circuit breaker's
	// position ("closed", "open", "half-open"), PeerOK/PeerFailed count
	// completed requests and probes by outcome, and PeerLastError renders
	// the most recent failure.
	Peer          string `json:"peer,omitempty"`
	PeerHealthy   bool   `json:"peer_healthy,omitempty"`
	PeerState     string `json:"peer_state,omitempty"`
	PeerOK        uint64 `json:"peer_ok,omitempty"`
	PeerFailed    uint64 `json:"peer_failed,omitempty"`
	PeerLastError string `json:"peer_last_error,omitempty"`
}

// ShardStats reports per-shard health, in shard order.
func (db *ShardedDB) ShardStats() []ShardStat {
	out := make([]ShardStat, len(db.shards))
	for i, sh := range db.shards {
		st := sh.Stats()
		out[i] = ShardStat{
			ID:            st.ID,
			Members:       st.Members,
			Generation:    st.Gen,
			Ops:           st.Ops,
			QueueDepth:    st.Queue.QueueDepth,
			Enqueued:      st.Queue.Enqueued,
			Applied:       st.Queue.Applied,
			Batches:       st.Queue.Batches,
			Errors:        st.Queue.Errors,
			LastError:     st.Queue.LastError,
			WALAppliedLSN: st.WALAppliedLSN,
			WAL:           walStatsOf(st, db.cfg.durability),
		}
		if db.peers != nil && db.peers[i] != nil {
			c := db.peers[i]
			out[i].Peer = c.Base()
			out[i].PeerHealthy = c.Healthy()
			out[i].PeerState = c.BreakerState().String()
			out[i].PeerOK = c.OK()
			out[i].PeerFailed = c.Failed()
			out[i].PeerLastError = c.LastError()
		}
	}
	return out
}

// PeerStats reports how many evaluation chunks were answered by replica
// processes and how many fell back to the local model.
func (db *ShardedDB) PeerStats() (hits, fallbacks uint64) {
	hits, fallbacks = db.peerHits.Load(), db.peerFalls.Load()
	if re, ok := db.snapshotNow().eng.Eval.(*shard.RemoteEvaluator); ok {
		hits += re.Hits()
		fallbacks += re.Fallbacks()
	}
	return hits, fallbacks
}
