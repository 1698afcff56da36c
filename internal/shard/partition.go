// Package shard implements the sharded serving tier: the learned RSPN
// ensemble is partitioned so each shard owns a subset of the members with
// its own snapshot pipeline and write-ahead log, and a router composes the
// shards' published snapshots back into one serving view whose estimates
// are bit-identical to single-process execution.
//
// The decomposition mirrors the paper's own: the Plan layer already splits
// every query into per-RSPN sub-estimates combined with Theorem-2 /
// inclusion-exclusion arithmetic, so a member's evaluations can run
// wherever that member lives. Plan.RSPNs exposes exactly which members a
// query shape touches — the routing metadata that tells the router which
// shards a query fans out to.
//
// Mutations are broadcast: every shard applies the full mutation stream to
// its own copy of the base tables. Selective routing of writes would break
// bit-identity — an insert into one table bumps FK tuple-factor columns of
// partner tables, so every shard needs every write to keep its subset's
// models exactly where a single process would put them. Each shard's
// snapshot carries `ops`, the cumulative count of mutations it has
// processed (failed ones included — failures are deterministic under an
// identical stream); the router recomposes its merged view only when all
// shards report the same ops, so readers never observe a torn view mixing
// shards at different apply progress.
package shard

import (
	"sort"

	"repro/internal/ensemble"
)

// Partition assigns the ensemble's members to at most n shards and returns
// the member-index sets, each sorted ascending. Assignment is deterministic
// (same ensemble and n always produce the same partition — a restart
// replays each per-shard WAL into the members it was written for) and
// cost-balanced, with each member's training-sample row count as the
// evaluation-cost proxy.
//
// Members sharing a base table are kept on the same shard when enough
// table groups exist — a query's Theorem-2 branches over one table group
// then resolve on one shard. When fewer groups than shards exist (a joint
// member often chains every table into one group), members are balanced
// individually instead: broadcast updates make any assignment correct, so
// group cohesion is a locality preference, never a correctness requirement.
// Fewer members than n yields fewer than n shards.
func Partition(ens *ensemble.Ensemble, n int) [][]int {
	m := len(ens.RSPNs)
	if n < 1 {
		n = 1
	}
	units := tableGroups(ens)
	if len(units) < n {
		units = make([][]int, m)
		for i := range units {
			units[i] = []int{i}
		}
	}
	if n > len(units) {
		n = len(units)
	}
	type unit struct {
		members []int
		cost    float64
	}
	us := make([]unit, len(units))
	for i, ms := range units {
		u := unit{members: ms}
		for _, j := range ms {
			u.cost += ens.RSPNs[j].Model.RowCount
		}
		us[i] = u
	}
	// Largest first, ties by first member index; both orders are total, so
	// the greedy assignment below is deterministic.
	sort.SliceStable(us, func(a, b int) bool {
		if us[a].cost != us[b].cost {
			return us[a].cost > us[b].cost
		}
		return us[a].members[0] < us[b].members[0]
	})
	out := make([][]int, n)
	load := make([]float64, n)
	for _, u := range us {
		best := 0
		for s := 1; s < n; s++ {
			if load[s] < load[best] {
				best = s
			}
		}
		out[best] = append(out[best], u.members...)
		load[best] += u.cost
	}
	for _, ms := range out {
		sort.Ints(ms)
	}
	return out
}

// tableGroups unions members that share a base table into groups, returned
// in first-member order with each group's members ascending.
func tableGroups(ens *ensemble.Ensemble) [][]int {
	m := len(ens.RSPNs)
	parent := make([]int, m)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	owner := map[string]int{}
	for i, r := range ens.RSPNs {
		for _, t := range r.Tables {
			if j, ok := owner[t]; ok {
				ra, rb := find(i), find(j)
				if ra != rb {
					if rb < ra {
						ra, rb = rb, ra
					}
					parent[rb] = ra
				}
			} else {
				owner[t] = i
			}
		}
	}
	byRoot := map[int][]int{}
	var order []int
	for i := 0; i < m; i++ {
		root := find(i)
		if _, ok := byRoot[root]; !ok {
			order = append(order, root)
		}
		byRoot[root] = append(byRoot[root], i)
	}
	out := make([][]int, 0, len(order))
	for _, root := range order {
		out = append(out, byRoot[root])
	}
	return out
}
