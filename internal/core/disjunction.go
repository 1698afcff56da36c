package core

import (
	"fmt"

	"repro/internal/query"
)

// Disjunction support (the inclusion-exclusion extension Section 4.1
// mentions): a query with an OR-group (d1 OR ... OR dk) ANDed to its
// conjunctive filters is compiled as
//
//	count(C ∧ ⋁ d_i) = Σ_{∅≠S⊆[k]} (-1)^{|S|+1} count(C ∧ ⋀_{i∈S} d_i)
//
// where each signed term is an ordinary conjunctive query the engine
// already handles (conjuncts on the same column intersect their ranges).
// SUM distributes the same way; AVG is SUM/COUNT. The expansion happens at
// compile time (plan.go): each signed term is compiled against the
// ordinals of the predicates it conjoins, and execution re-binds only the
// predicate values.

// signedTerms returns how many signed conjunctive terms the query expands
// to: one without a disjunction, 2^k - 1 with k disjuncts.
func signedTerms(q query.Query) (int, error) {
	k := len(q.Disjunction)
	if k == 0 {
		return 1, nil
	}
	if k > 8 {
		return 0, fmt.Errorf("core: disjunction with %d terms (max 8)", k)
	}
	return 1<<k - 1, nil
}

// signedTerm returns term i of the expansion over a predicate vector of n
// predicates whose last k are the disjuncts: the ordinals of every
// conjunct plus the disjunct subset with mask i+1, and the term's sign.
func signedTerm(n, k, i int) (ords []int, sign float64) {
	ords = make([]int, n-k, n)
	for o := range ords {
		ords[o] = o
	}
	if k == 0 {
		return ords, 1
	}
	sign = -1
	for d := 0; d < k; d++ {
		if (i+1)&(1<<d) != 0 {
			ords = append(ords, n-k+d)
			sign = -sign
		}
	}
	return ords, sign
}
