package deepdb

import (
	"encoding/binary"
	"math"

	"repro/internal/query"
)

// The result cache is a cross-query semantic cache of finished results,
// sitting in front of plan execution: a repeated query — same shape, same
// bound literal values, same effective confidence level — against the same
// published snapshot generation is answered from the cache without touching
// the models at all. The cached value IS the value execution produced, so a
// hit is bit-identical to a miss. It is a genLRU (which carries the
// generation discipline) over resultCacheWays ways, looked up with the
// caller's scratch []byte key.

// cachedResult is one cached execution. Exactly one of res/est is
// meaningful; the key's namespace byte decides which, so a query result is
// never handed back as a cardinality estimate or vice versa.
type cachedResult struct {
	res Result
	est Estimate
}

// Result-key namespaces: query executions and cardinality estimates answer
// different things for the same SQL, so they never share an entry.
const (
	nsQuery    = 'q'
	nsEstimate = 'e'
)

// resultCacheWays bounds lock contention, not capacity.
const resultCacheWays = 8

// copyResult deep-copies a result: the groups slice and each group's key
// and label slices. Every result crosses the cache boundary through it, in
// both directions, so cache and caller never alias and a caller mutating
// its result cannot poison the cache.
func copyResult(res Result) Result {
	if res.Groups == nil {
		return res
	}
	groups := make([]Group, len(res.Groups))
	for i, g := range res.Groups {
		if g.Key != nil {
			g.Key = append([]float64(nil), g.Key...)
		}
		if g.Labels != nil {
			g.Labels = append([]string(nil), g.Labels...)
		}
		groups[i] = g
	}
	return Result{Groups: groups}
}

// resultKey builds the cache key of one execution: namespace (query vs
// estimate), the plan-cache shape key, every bound literal value in
// predicate order (bit-exact, see literalBits), and the effective confidence
// level. The shape key fixes the filter columns and operators positionally,
// so appending the values in the same positional order identifies the
// bound query uniquely; IN-lists are length-prefixed because their value
// count is collapsed in the shape. AtConfidence variants get distinct keys
// via the level — a hit never serves an interval computed at a different
// level.
func resultKey(ns byte, shape string, q query.Query, level float64) []byte {
	b := make([]byte, 0, len(shape)+18+8*(len(q.Filters)+len(q.Disjunction)))
	b = append(b, ns)
	b = append(b, shape...)
	b = append(b, 0)
	b = appendPredValues(b, q.Filters)
	b = append(b, 1)
	b = appendPredValues(b, q.Disjunction)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(level))
}

// appendPredValues appends each predicate's bound literal bits.
func appendPredValues(b []byte, preds []query.Predicate) []byte {
	for _, p := range preds {
		if p.Op == query.In {
			b = binary.LittleEndian.AppendUint64(b, uint64(len(p.Values)))
			for _, v := range p.Values {
				b = binary.LittleEndian.AppendUint64(b, literalBits(v))
			}
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, literalBits(p.Value))
	}
	return b
}

// literalBits is the key encoding of one literal: its float bits, with -0
// folded onto +0 — `x = 0` and `x = -0` are the same predicate and must
// share an entry. (NaN never gets here: binding rejects it.)
func literalBits(v float64) uint64 {
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}
