package shard

import (
	"repro/internal/ensemble"
	"repro/internal/rspn"
)

// Compose merges the shards' current snapshots into one read-only serving
// view: every global member slot filled with the owning shard's published
// RSPN, schema/statistics/tables taken from shard 0 (identical across
// shards under broadcast application). A single whole-ensemble shard
// composes to its own published ensemble — the one-shard host's view IS
// that shard's state, drift tracker included. It returns ok=false when the
// shards are not aligned — their ops tokens differ, meaning at least one
// shard is mid-stream relative to the others — and the host then keeps
// serving its previous consistent view. ops is monotonic per shard, so
// equal tokens can never be an ABA coincidence: equal means equal progress.
//
// The returned ensemble is a view, not an updatable state: it must never
// see CloneForUpdate/Apply — the host broadcasts mutations to the shards
// instead.
func Compose(shards []*Shard, total int) (ens *ensemble.Ensemble, ops uint64, ok bool) {
	if len(shards) == 0 {
		return nil, 0, false
	}
	if len(shards) == 1 && shards[0].members == nil {
		ens, _, ops = shards[0].View()
		return ens, ops, true
	}
	views := make([]*ensemble.Ensemble, len(shards))
	for i, sh := range shards {
		e, _, o := sh.View()
		if i == 0 {
			ops = o
		} else if o != ops {
			return nil, 0, false
		}
		views[i] = e
	}
	base := views[0]
	out := &ensemble.Ensemble{
		Schema:    base.Schema,
		RSPNs:     make([]*rspn.RSPN, total),
		AttrRDC:   base.AttrRDC,
		PairDep:   base.PairDep,
		Stats:     base.Stats,
		Tables:    base.Tables,
		BuildTime: base.BuildTime,
	}
	for i, sh := range shards {
		for j, global := range sh.Members() {
			if global < 0 || global >= total || j >= len(views[i].RSPNs) {
				return nil, 0, false
			}
			out.RSPNs[global] = views[i].RSPNs[j]
		}
	}
	for _, r := range out.RSPNs {
		if r == nil {
			// The partition does not cover every member slot; a composed
			// view with holes would mis-plan, so refuse.
			return nil, 0, false
		}
	}
	return out, ops, true
}
