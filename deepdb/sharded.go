package deepdb

// sharded.go is what only a DB built with WithShards/WithShardPeers
// exercises: the replica offload and the per-shard health report. The
// partition itself is one branch of newDB (deepdb.go); everything else —
// the read API, the broadcast write path, Flush/Save/Reload/Close — is
// identical at every shard count (see deepdb.go and updates.go).
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
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/shard"
)

// dialPeers builds the replica clients of WithShardPeers, one per shard in
// shard order ("" binds none to that shard). A no-op without the option.
func (db *DB) dialPeers() {
	cfg := db.cfg
	if len(cfg.shardPeers) == 0 {
		return
	}
	db.peers = make([]*shard.Client, len(db.shards))
	var copts []shard.ClientOption
	if cfg.peerAttempts > 0 || cfg.peerBackoff > 0 {
		copts = append(copts, shard.WithRetry(cfg.peerAttempts, cfg.peerBackoff))
	}
	if cfg.peerBreakThresh > 0 || cfg.peerBreakCooldown > 0 {
		copts = append(copts, shard.WithBreaker(cfg.peerBreakThresh, cfg.peerBreakCooldown))
	}
	for i := range db.shards {
		if i < len(cfg.shardPeers) && cfg.shardPeers[i] != "" {
			db.peers[i] = shard.NewClient(cfg.shardPeers[i], copts...)
		}
	}
}

// startProber launches the background peer health prober: every probe
// interval each bound replica's /healthz is checked and the outcome feeds
// its circuit breaker and health flag, so a dead peer's breaker opens (and
// re-closes after heal) even when no query traffic flows. No-op without
// peers or with probing disabled.
func (db *DB) startProber() {
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

// bindPeers routes the evaluation of the view about to be published
// through the bound replicas (prev is the outgoing view, nil at
// construction), with bindings valid exactly for this ops token, and
// retires the outgoing view's evaluator counters into the running totals (a
// chunk in flight right now may be lost to the count; these are
// observability numbers, not accounting). When the stream advanced under an
// unchanged view (eng is prev's own engine) the existing bindings just move
// to the new token. Only called with peers bound.
func (db *DB) bindPeers(prev *snapshot, eng *core.Engine, ens *ensemble.Ensemble, ops uint64) {
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
func (db *DB) forwardPeers(muts []ensemble.Mutation) {
	for _, c := range db.peers {
		if c == nil {
			continue
		}
		c.Apply(context.Background(), muts) //nolint:errcheck // best-effort offload
	}
}

// Shards returns the number of shards serving this DB: 1 unless WithShards
// partitioned the ensemble.
func (db *DB) Shards() int { return len(db.shards) }

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

// ShardStats reports per-shard health, in shard order: one entry, without
// members or peer, on an unpartitioned DB.
func (db *DB) ShardStats() []ShardStat {
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
// processes and how many fell back to the local model (zeros without
// WithShardPeers).
func (db *DB) PeerStats() (hits, fallbacks uint64) {
	hits, fallbacks = db.peerHits.Load(), db.peerFalls.Load()
	if re, ok := db.snapshotNow().eng.Eval.(*shard.RemoteEvaluator); ok {
		hits += re.Hits()
		fallbacks += re.Fallbacks()
	}
	return hits, fallbacks
}
