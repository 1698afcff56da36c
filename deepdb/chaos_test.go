package deepdb_test

// chaos_test.go is the fault-injection suite of PR 9: it drives the public
// surface (sharded router with replica peers, WAL-backed single DB, async
// applier) under seeded fault schedules and asserts the three hardening
// invariants end to end — estimates stay bit-identical to a fault-free
// run, no acknowledged write is ever lost, and the per-peer circuit
// breaker opens under outage and converges back to closed after heal.
//
// Fault-enabling tests share the process-global fault registry, so none
// of them call t.Parallel (the suite runs shuffled, not parallel).

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/deepdb"
	"repro/internal/ensemble"
	"repro/internal/fault"
	"repro/internal/shard"
)

// enableChaos activates a fault schedule for one (sub)test.
func enableChaos(t *testing.T, spec string) *fault.Schedule {
	t.Helper()
	s, err := fault.Parse(spec)
	if err != nil {
		t.Fatalf("fault.Parse(%q): %v", spec, err)
	}
	fault.Enable(s)
	t.Cleanup(fault.Disable)
	return s
}

// chaosReplicas loads the saved model, derives the same deterministic
// partition the router will, and serves each shard over HTTP behind a
// kill switch: flipping downs[i] turns replica i into a hard 503 outage
// (probes included) without tearing down the listener.
func chaosReplicas(t *testing.T, modelPath string, n int) (urls []string, downs []*atomic.Bool) {
	t.Helper()
	ens, err := ensemble.LoadFile(modelPath, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := shard.Partition(ens, n)
	for i := 0; i < n; i++ {
		sh, err := shard.New(i, members[i], ens, shard.Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sh.Close() }) //nolint:errcheck // test teardown
		inner := shard.NewServer(sh)
		down := &atomic.Bool{}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if down.Load() {
				http.Error(w, "injected outage", http.StatusServiceUnavailable)
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
		downs = append(downs, down)
	}
	return urls, downs
}

// TestChaosPeerFaults is the router-side chaos bar: under injected
// transport latency, partitions and timeouts, under a hard replica
// outage, and after heal, every query must answer bit-identically to a
// peerless router over the same model — remote evaluation is a pure
// offload, never a correctness input. The phases also pin the breaker
// lifecycle: open under outage, closed again after the prober sees the
// replica heal, with no query traffic required in between.
func TestChaosPeerFaults(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(1500, 31)
	learned, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := learned.Save(path); err != nil {
		t.Fatal(err)
	}
	if err := learned.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := deepdb.Open(ctx, path, deepdb.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want := make([]string, len(equivalenceWorkload))
	for i, q := range equivalenceWorkload {
		r, err := ref.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d reference: %v", i, err)
		}
		want[i] = normResult(r)
	}

	urls, downs := chaosReplicas(t, path, 2)
	db, err := deepdb.Open(ctx, path,
		deepdb.WithShards(2),
		deepdb.WithShardPeers(urls...),
		deepdb.WithPeerRetries(2, time.Millisecond),
		deepdb.WithPeerBreaker(3, 50*time.Millisecond),
		deepdb.WithPeerProbeInterval(5*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	checkWorkload := func(t *testing.T, phase string) {
		t.Helper()
		for i, q := range equivalenceWorkload {
			got, err := db.ExecuteQuery(ctx, q)
			if err != nil {
				t.Fatalf("%s: query %d: %v", phase, i, err)
			}
			if normResult(got) != want[i] {
				t.Fatalf("%s: query %d diverged from fault-free reference\n  want: %s\n  got:  %s",
					phase, i, want[i], normResult(got))
			}
		}
	}
	// waitPeer polls shard 0's peer binding until cond holds; the prober
	// (5ms interval) is what moves the breaker with no query traffic.
	waitPeer := func(t *testing.T, desc string, cond func(deepdb.ShardStat) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if cond(db.ShardStats()[0]) {
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s: %+v", desc, db.ShardStats()[0])
	}

	// Phase 1 — healthy: the offload actually offloads.
	checkWorkload(t, "healthy")
	if hits, _ := db.PeerStats(); hits == 0 {
		t.Fatal("healthy phase answered no chunks remotely — peers not wired")
	}

	// Phase 2 — flaky transport: seeded latency, partitions and timeouts
	// on the /eval path. Retries absorb some failures, fallback the rest;
	// either way the answers must not move.
	enableChaos(t, "point=shard.eval;kind=latency;d=2ms;every=5"+
		"|point=shard.eval;kind=partition;prob=0.4;seed=11"+
		"|point=shard.eval;kind=error;errno=ETIMEDOUT;every=7")
	checkWorkload(t, "flaky transport")
	fault.Disable()

	// Phase 3 — hard outage: replica 0 serves only 503s. Every chunk bound
	// to it falls back locally, the failed probes/requests trip its
	// breaker, and health reporting flips.
	downs[0].Store(true)
	checkWorkload(t, "outage")
	if _, falls := db.PeerStats(); falls == 0 {
		t.Fatal("outage produced no local fallbacks")
	}
	waitPeer(t, "breaker to open", func(st deepdb.ShardStat) bool {
		return st.PeerState == "open" && !st.PeerHealthy
	})
	if st := db.ShardStats()[0]; st.PeerLastError == "" {
		t.Fatalf("open breaker with empty PeerLastError: %+v", st)
	}
	// Queries keep answering, and keep answering identically, while open.
	checkWorkload(t, "breaker open")

	// Phase 4 — heal: the prober's next successful probe must re-close the
	// breaker without any query traffic, and the offload resumes.
	downs[0].Store(false)
	waitPeer(t, "breaker to re-close after heal", func(st deepdb.ShardStat) bool {
		return st.PeerState == "closed" && st.PeerHealthy
	})
	hitsBefore, _ := db.PeerStats()
	checkWorkload(t, "healed")
	if hitsAfter, _ := db.PeerStats(); hitsAfter == hitsBefore {
		t.Fatal("no remote hits after heal — offload did not resume")
	}
}

// TestChaosWALFailStop pins the WAL failure policy: the first append or
// fsync failure latches, the write and every later one is refused with
// ErrDurabilityLost, reads keep serving.
func TestChaosWALFailStop(t *testing.T) {
	ctx := context.Background()
	ins := func(i int) (string, map[string]deepdb.Value) {
		return "orders", map[string]deepdb.Value{
			"o_id":     deepdb.Int(7_000_000 + i),
			"o_c_id":   deepdb.Int(i % 100),
			"o_amount": deepdb.Float(42),
		}
	}

	t.Run("fail-stop", func(t *testing.T) {
		db := learnWAL(t, t.TempDir(), 600, 5)
		defer db.Close()
		enableChaos(t, "point=wal.append.write;kind=disk-full;count=1")

		table, values := ins(0)
		err := db.Insert(table, values)
		if !errors.Is(err, deepdb.ErrDurabilityLost) {
			t.Fatalf("insert after injected ENOSPC: err = %v, want ErrDurabilityLost", err)
		}
		if !strings.Contains(err.Error(), "disk full") {
			t.Fatalf("error does not carry the root cause: %v", err)
		}
		// The failure latches: the WAL itself would work again (the rule is
		// exhausted) but accepting writes now would silently fork durable
		// history, so every later write is refused too.
		table, values = ins(1)
		if err := db.Insert(table, values); !errors.Is(err, deepdb.ErrDurabilityLost) {
			t.Fatalf("second insert: err = %v, want ErrDurabilityLost (latched)", err)
		}
		st := db.UpdateStats()
		if !st.DurabilityLost || st.LastWALError == "" {
			t.Fatalf("stats hide the latched failure: %+v", st)
		}
		// The read path is untouched: the model keeps answering.
		if _, err := db.ExecuteQuery(ctx, equivalenceWorkload[0]); err != nil {
			t.Fatalf("query while fail-stopped: %v", err)
		}
	})

	t.Run("fail-stop-sharded", func(t *testing.T) {
		s, data := fixture(800, 13)
		db, err := deepdb.LearnDataset(ctx, s, data,
			deepdb.WithShards(2), deepdb.WithMaxSamples(4000),
			deepdb.WithWAL(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		enableChaos(t, "point=wal.append.write;kind=error;errno=EIO;count=1")

		table, values := ins(0)
		if err := db.Insert(table, values); !errors.Is(err, deepdb.ErrDurabilityLost) {
			t.Fatalf("sharded insert after injected EIO: err = %v, want ErrDurabilityLost", err)
		}
		table, values = ins(1)
		if err := db.Insert(table, values); !errors.Is(err, deepdb.ErrDurabilityLost) {
			t.Fatalf("second sharded insert: err = %v, want ErrDurabilityLost (latched)", err)
		}
		st := db.UpdateStats()
		if !st.DurabilityLost || st.LastWALError == "" {
			t.Fatalf("sharded stats hide the latched failure: %+v", st)
		}
		if _, err := db.ExecuteQuery(ctx, equivalenceWorkload[0]); err != nil {
			t.Fatalf("sharded query while fail-stopped: %v", err)
		}
	})

	t.Run("fail-stop-fsync", func(t *testing.T) {
		db := learnWAL(t, t.TempDir(), 600, 5, deepdb.WithDurability(deepdb.DurabilitySync))
		defer db.Close()
		enableChaos(t, "point=wal.append.sync;kind=error;errno=EIO;count=1")

		// An append whose fsync fails was never durable, so it is refused
		// like a failed write — and nothing reached the model.
		for i := 0; i < 2; i++ {
			table, values := ins(i)
			if err := db.Insert(table, values); !errors.Is(err, deepdb.ErrDurabilityLost) {
				t.Fatalf("insert %d after injected fsync EIO: err = %v, want ErrDurabilityLost", i, err)
			}
		}
		if err := db.Flush(ctx); err != nil {
			t.Fatalf("flush while fail-stopped: %v", err)
		}
		st := db.UpdateStats()
		if !st.DurabilityLost || st.LastWALError == "" || st.Enqueued != 0 {
			t.Fatalf("stats = %+v, want the failure latched and nothing enqueued", st)
		}
	})
}

// TestChaosApplierRecovery is the no-acked-write-loss bar for the async
// path: a batch whose in-memory apply fails was still WAL-logged before it
// was acknowledged, so the error surfaces at Flush and a restart replays
// the full stream — the rebuilt DB answers the whole workload matrix
// bit-identically to a DB that never saw the fault.
func TestChaosApplierRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	muts := mutationStream(40)

	faulted := learnWAL(t, dir, 1200, 77, deepdb.WithDurability(deepdb.DurabilitySync))
	enableChaos(t, "point=pipeline.apply;kind=error;errno=EIO;count=1")
	applyStream(t, faulted, muts)
	if err := faulted.Flush(ctx); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("flush after injected apply failure: err = %v, want ErrInjected to surface", err)
	}
	fault.Disable()
	// "Crash" without checkpointing: the checkpoint stays 0, every
	// acknowledged record — including the batch that never applied — is
	// still live in the log.
	faulted.Close() //nolint:errcheck // simulated crash; the WAL is the contract

	recovered := learnWAL(t, dir, 1200, 77)
	defer recovered.Close()
	st := recovered.UpdateStats()
	if st.WAL == nil || st.WAL.Replayed != uint64(len(muts)) {
		t.Fatalf("recovery replayed %+v, want all %d acknowledged groups", st.WAL, len(muts))
	}

	s, data := fixture(1200, 77)
	ref, err := deepdb.LearnDataset(ctx, s, data,
		deepdb.WithMaxSamples(8000), deepdb.WithSyncUpdates())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	applyStream(t, ref, muts)

	for i, q := range equivalenceWorkload {
		a, err := ref.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d ref: %v", i, err)
		}
		b, err := recovered.ExecuteQuery(ctx, q)
		if err != nil {
			t.Fatalf("query %d recovered: %v", i, err)
		}
		if normResult(a) != normResult(b) {
			t.Fatalf("query %d: the failed batch was lost\n  ref:       %v\n  recovered: %v", i, a, b)
		}
	}
}

// TestPeerOffloadSurvivesAllFailedBatch: a batch in which nothing applies
// advances the ops token on the router's shards and on the replicas but
// leaves the served view — and its generation — in place. The view's
// replica bindings must move to the new token with it: offload continues
// instead of degrading to local fallback on every chunk.
func TestPeerOffloadSurvivesAllFailedBatch(t *testing.T) {
	ctx := context.Background()
	s, data := fixture(800, 33)
	learned, err := deepdb.LearnDataset(ctx, s, data, deepdb.WithMaxSamples(4000))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.deepdb")
	if err := learned.Save(path); err != nil {
		t.Fatal(err)
	}
	urls, _ := chaosReplicas(t, path, 2)
	db, err := deepdb.Open(ctx, path, deepdb.WithShards(2), deepdb.WithDataset(learned.Data()),
		deepdb.WithShardPeers(urls...), deepdb.WithPeerProbeInterval(0))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	gen := db.Generation()
	if err := db.Delete("orders", 8_888_888); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(ctx); err == nil {
		t.Fatal("deleting a missing primary key surfaced no apply error")
	}
	if db.Generation() != gen {
		t.Fatalf("an all-failed batch moved the generation %d -> %d", gen, db.Generation())
	}
	hits, falls := db.PeerStats()
	for i, q := range equivalenceWorkload {
		if _, err := db.ExecuteQuery(ctx, q); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	hitsAfter, fallsAfter := db.PeerStats()
	if hitsAfter == hits || fallsAfter != falls {
		t.Fatalf("offload after an all-failed batch: hits %d -> %d, fallbacks %d -> %d (want remote hits, no fallbacks)",
			hits, hitsAfter, falls, fallsAfter)
	}
}
