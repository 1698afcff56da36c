package deepdb_test

// chaos_test.go is the fault-injection suite: it drives the public surface
// (WAL-backed DB, async applier) under seeded
// fault schedules and asserts the hardening invariants end to end — a
// failed log fails stop without losing an acknowledged write, and an
// injected apply failure is recovered from the log.
//
// Fault-enabling tests share the process-global fault registry, so none
// of them call t.Parallel (the suite runs shuffled, not parallel).

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/deepdb"
	"repro/internal/fault"
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
