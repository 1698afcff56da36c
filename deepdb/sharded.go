package deepdb

// sharded.go is what only a DB built with WithShards exercises: the
// per-shard health report. The partition itself is one branch of newDB
// (deepdb.go); everything else — the read API, the broadcast write path,
// Flush/Save/Reload/Close — is identical at every shard count (see
// deepdb.go and updates.go).
//
// Query execution on the composed view runs the unchanged compile +
// Theorem-2/inclusion-exclusion machinery of internal/core, so results are
// bit-identical to one-shard execution by construction; the equivalence
// tests in sharded_test.go prove it per query class.

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
}

// ShardStats reports per-shard health, in shard order: one entry, without
// members, on an unpartitioned DB.
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
	}
	return out
}
