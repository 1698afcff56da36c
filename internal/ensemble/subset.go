package ensemble

// subset.go carves per-shard sub-ensembles out of a learned ensemble. A
// subset owns a slice of the members but keeps the full schema, dependency
// statistics and base tables, because incremental updates need them all:
// tuple-factor maintenance looks up partner rows in referenced tables even
// when no local member covers them, and Theorem-2 denominators come from
// the per-table statistics. Sharing the table pointers is safe — the update
// path writes clones (table.CloneData), which share the column arrays but
// never write a cell another table reads: the first subset to append to a
// table extends its arrays in place, every other subset's first append
// copies them (the tables' tail word decides), and a cell write copies its
// column.

import (
	"fmt"
	"math/rand"

	"repro/internal/rspn"
	"repro/internal/table"
)

// Subset returns a new ensemble holding exactly the given members (global
// indices into RSPNs, in the given order). The subset has its own write
// index, statistics map and rng, so it can absorb the same mutation stream
// as the parent — or any other subset — independently and deterministically:
// at full sample rate, applying one stream to two subsets leaves their
// shared members bit-identical.
func (e *Ensemble) Subset(members []int) (*Ensemble, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("ensemble: empty member subset")
	}
	rs := make([]*rspn.RSPN, len(members))
	seen := make(map[int]bool, len(members))
	for i, m := range members {
		if m < 0 || m >= len(e.RSPNs) {
			return nil, fmt.Errorf("ensemble: no member %d (have %d)", m, len(e.RSPNs))
		}
		if seen[m] {
			return nil, fmt.Errorf("ensemble: member %d listed twice", m)
		}
		seen[m] = true
		rs[i] = e.RSPNs[m]
	}
	out := &Ensemble{
		Schema:    e.Schema,
		RSPNs:     rs,
		AttrRDC:   e.AttrRDC,
		PairDep:   e.PairDep,
		Stats:     make(map[string]TableStats, len(e.Stats)),
		BuildTime: e.BuildTime,
		cfg:       e.cfg,
		rng:       rand.New(rand.NewSource(e.cfg.Seed)),
		idx:       newWriteIndex(),
	}
	//deepdb:orderinvariant map copy; the result is independent of visit order
	for name, st := range e.Stats {
		out.Stats[name] = st
	}
	if e.Tables != nil {
		out.Tables = make(map[string]*table.Table, len(e.Tables))
		//deepdb:orderinvariant map copy sharing immutable-until-CoW table pointers
		for name, t := range e.Tables {
			out.Tables[name] = t
		}
	}
	return out, nil
}
