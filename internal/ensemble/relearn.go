package ensemble

// relearn.go implements drift-triggered member regeneration: re-learning a
// single RSPN from the current base tables (with tombstoned rows compacted
// away) and swapping it into a copy-on-write ensemble clone. The facade
// drives this from a background goroutine — RelearnMember only reads
// published immutable state, tombstones included (each snapshot's tables
// record exactly its own deletions), so learning runs without blocking
// readers or (usually) writers.

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/drift"
	"repro/internal/rspn"
	"repro/internal/table"
)

// EnableDrift initializes per-member staleness tracking over the attached
// base tables with one O(cells) scan: every member's baseline is the
// current table state. Tracked columns are the attribute columns (keys and
// synthetic tuple-factor columns drift trivially under key-sequential
// inserts and are excluded). A no-op without attached tables.
func (e *Ensemble) EnableDrift() {
	if e.Tables == nil {
		return
	}
	cols := make(map[string][]string, len(e.Tables))
	//deepdb:orderinvariant builds independent per-table map entries; no cross-iteration state
	for name := range e.Tables {
		cols[name] = e.attributeColumns(name)
	}
	members := make([][]string, len(e.RSPNs))
	for i, r := range e.RSPNs {
		members[i] = r.Tables
	}
	e.Drift = drift.New(e.Tables, cols, members)
}

// RelearnMember learns a fresh replacement for member i from the current
// base tables, compacting tombstoned rows away first (re-learning from the
// physical tables would resurrect every deleted row). The receiver is not
// mutated — callers swap the result in with SwapMember. Learning is
// deterministic given the table state (rspn.Learn seeds its own rng from
// the configured seed), so it can run outside the update lock against a
// published snapshot.
func (e *Ensemble) RelearnMember(ctx context.Context, i int) (*rspn.RSPN, error) {
	if i < 0 || i >= len(e.RSPNs) {
		return nil, fmt.Errorf("ensemble: no member %d", i)
	}
	if e.Tables == nil {
		return nil, fmt.Errorf("ensemble: no base tables attached")
	}
	r := e.RSPNs[i]
	// A shallow sub-ensemble pointing at compacted views of the member's
	// tables; learnSingle/learnJoin only touch Schema, Tables and cfg.
	sub := &Ensemble{
		Schema: e.Schema,
		Tables: make(map[string]*table.Table, len(r.Tables)),
		cfg:    e.cfg,
		rng:    rand.New(rand.NewSource(e.cfg.Seed)),
	}
	for _, name := range r.Tables {
		t, ok := e.Tables[name]
		if !ok {
			return nil, fmt.Errorf("ensemble: unknown table %s", name)
		}
		sub.Tables[name] = t.Live()
	}
	if len(r.Tables) == 1 {
		return sub.learnSingle(ctx, r.Tables[0])
	}
	return sub.learnJoin(ctx, r.Tables)
}

// SwapMember returns a shallow clone of the ensemble with member i
// replaced by nr: the RSPN slice is copied, everything else — tables,
// statistics, dependency maps, the shared write index and drift set — is
// shared by pointer. Publishing the clone hot-swaps the model under
// concurrent readers exactly like an update batch publication.
func (e *Ensemble) SwapMember(i int, nr *rspn.RSPN) *Ensemble {
	out := *e
	out.RSPNs = append([]*rspn.RSPN(nil), e.RSPNs...)
	out.RSPNs[i] = nr
	return &out
}
