package deepdb

// relearn.go is drift-triggered background re-learning.
//
// The paper's incremental updates (Section 5.2) keep models exact for
// in-distribution streams but accumulate approximation error under drift.
// The applier checks the drift trigger after every published batch; when a
// member trips, a background goroutine re-learns just that member from the
// current base tables (tombstones compacted away) and hot-swaps it into
// the serving snapshot through the DB's one publication path (swap) —
// readers never block, generations stay monotonic, and cached plans
// recompile exactly as they do for an update batch.

import (
	"context"

	"repro/internal/ensemble"
	"repro/internal/rspn"
)

// maybeRelearn checks the drift trigger and, when a member trips, spawns
// (at most one at a time) the background re-learner. The applier calls it
// after every update batch that changed the serving view, under applyMu,
// so it must not wait on anything a writer may hold. A no-op unless a
// trigger is armed.
func (db *DB) maybeRelearn() {
	th := db.cfg.driftThresholds()
	if !th.Enabled() {
		return
	}
	ens := db.snapshotNow().ens
	if ens.Drift == nil {
		return
	}
	i, _, ok := ens.Drift.Trip(th)
	if !ok {
		return
	}
	if !db.relearnBusy.CompareAndSwap(false, true) {
		return
	}
	// Register with the close barrier under relearnMu: either this runs
	// before Close flips the flag (Close then waits for it), or it sees
	// closed and backs off.
	db.relearnMu.Lock()
	if db.relearnClosed {
		db.relearnMu.Unlock()
		db.relearnBusy.Store(false)
		return
	}
	db.relearnWG.Add(1)
	db.relearnMu.Unlock()
	go func() {
		defer db.relearnWG.Done()
		defer db.relearnBusy.Store(false)
		db.relearnMember(i)
	}()
}

// relearnMember re-learns member i and hot-swaps it into the serving
// snapshot. Two optimistic attempts learn from a published snapshot
// without blocking writers and publish only if the member's tables saw no
// mutation meanwhile (the applier's per-table version counters — drift's
// own counters would miss FK tuple-factor bumps on One-side tables, which
// change the data a re-learn sees). Under sustained writes both attempts
// can lose the race; the fallback then learns while holding the apply
// lock — writers wait, readers still never block.
func (db *DB) relearnMember(i int) {
	ctx := context.Background()
	for attempt := 0; attempt < 2; attempt++ {
		var cur *ensemble.Ensemble
		var tables []string
		var ver []uint64
		db.swap(func(e *ensemble.Ensemble, tableVer map[string]uint64) *ensemble.Ensemble {
			if i < len(e.RSPNs) {
				cur, tables = e, e.RSPNs[i].Tables
				for _, t := range tables {
					ver = append(ver, tableVer[t])
				}
			}
			return nil
		})
		if cur == nil {
			return
		}
		nr, err := cur.RelearnMember(ctx, i)
		if err != nil {
			db.recordRelearnErr(err)
			return
		}
		swapped := false
		db.swap(func(live *ensemble.Ensemble, tableVer map[string]uint64) *ensemble.Ensemble {
			for j, t := range tables {
				if tableVer[t] != ver[j] {
					return nil
				}
			}
			swapped = true
			return swapMember(live, i, nr)
		})
		if swapped {
			return
		}
	}
	// Locked fallback: no writer can move the tables under us.
	db.swap(func(live *ensemble.Ensemble, _ map[string]uint64) *ensemble.Ensemble {
		if i >= len(live.RSPNs) {
			return nil
		}
		nr, err := live.RelearnMember(ctx, i)
		if err != nil {
			db.recordRelearnErr(err)
			return nil
		}
		return swapMember(live, i, nr)
	})
}

// swapMember builds the successor of live with member i replaced by its
// re-learned version and restarts that member's drift baseline.
func swapMember(live *ensemble.Ensemble, i int, nr *rspn.RSPN) *ensemble.Ensemble {
	next := live.SwapMember(i, nr)
	live.Drift.ResetMember(i)
	return next
}

func (db *DB) recordRelearnErr(err error) {
	db.relearnFails.Add(1)
	db.relearnMu.Lock()
	db.relearnErr = err.Error()
	db.relearnMu.Unlock()
}
