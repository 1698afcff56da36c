package core

import (
	"fmt"
	"strings"

	"repro/internal/query"
	"repro/internal/rspn"
)

// Explain renders the compiled plan without evaluating it: which
// compilation case of Section 4 applies (exact-match RSPN, superset RSPN
// with 1/F' normalization, or the Theorem-2 combination across bridge FK
// edges) and which ensemble members answer each part. It reads the same
// compiled structure execution walks, so it describes exactly the plan
// that runs.
func (p *Plan) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", p.q.String())
	if p.nparams > 0 {
		fmt.Fprintf(&b, "parameters: %d placeholder(s), bound at execution\n", p.nparams)
	}
	if err := p.ensureExec(); err != nil {
		fmt.Fprintf(&b, "execution would fail: %v\n", err)
		p.explainCountTerms(&b, p.card, binding(p.q, nil, nil))
		return b.String()
	}
	if len(p.groupCols) > 0 {
		fmt.Fprintf(&b, "group-by: one estimate per key combination of %s (%d keys enumerated from model leaves)\n",
			strings.Join(p.groupCols, ", "), p.numGroups)
	}
	if k := len(p.q.Disjunction); k > 0 {
		fmt.Fprintf(&b, "disjunction: inclusion-exclusion over %d OR-terms (%d conjunctive sub-queries; the fully-conjoined term is shown)\n",
			k, (1<<k)-1)
	}
	// The template binding: base filters, group-key placeholders, and every
	// disjunct; the rendered term is the fully-conjoined one, which reads
	// all of it.
	preds := binding(p.q, p.groupCols, make([]float64, len(p.groupCols)))
	counts := p.card
	if len(p.groupCols) > 0 {
		counts = p.count
	}
	switch {
	case p.avg != nil:
		fmt.Fprintf(&b, "avg: RSPN[%s] ratio of expectations (Section 4.2), resolving %d/%d filters\n",
			strings.Join(p.avg.r.Tables, " |x| "), len(p.avg.ords), len(preds))
		if len(p.groupCols) > 0 {
			b.WriteString("group existence gate (COUNT >= 0.5):\n")
			p.explainCountTerms(&b, counts, preds)
		}
	case len(p.sum) > 0:
		last := p.sum[len(p.sum)-1]
		if last.direct != nil {
			fmt.Fprintf(&b, "sum: single expectation on RSPN[%s] (covering member resolves all filters)\n",
				strings.Join(last.direct.r.Tables, " |x| "))
		} else {
			fmt.Fprintf(&b, "sum: COUNT * AVG fallback (AVG on RSPN[%s], resolving %d/%d filters); COUNT plan:\n",
				strings.Join(last.avg.r.Tables, " |x| "), len(last.avg.ords), len(preds))
			last.cnt.explain(&b, "  ", preds)
		}
		if p.q.Aggregate == query.Avg || len(p.groupCols) > 0 {
			b.WriteString("count divisor / group gate:\n")
			p.explainCountTerms(&b, counts, preds)
		}
	default:
		p.explainCountTerms(&b, counts, preds)
	}
	return b.String()
}

// explainCountTerms renders the count estimator: the single compiled node,
// or — for disjunctions — the fully-conjoined inclusion-exclusion term as
// the representative.
func (p *Plan) explainCountTerms(b *strings.Builder, terms []signedCount, preds []query.Predicate) {
	if len(terms) == 0 {
		return
	}
	terms[len(terms)-1].node.explain(b, "", preds)
}

// explain narrates one compiled count node; preds is the whole template
// binding, of which each term reports on the ordinals it reads.
func (n *countNode) explain(b *strings.Builder, indent string, preds []query.Predicate) {
	switch n.kind {
	case ckMedian:
		fmt.Fprintf(b, "%smedian over %d covering RSPNs:\n", indent, len(n.median))
		for _, c := range n.median {
			fmt.Fprintf(b, "%s  RSPN[%s]\n", indent, strings.Join(c.r.Tables, " |x| "))
		}
	case ckSingle:
		kase := "case 1 (exact table match)"
		if len(n.single.r.Tables) > len(n.tables) {
			kase = "case 2 (superset RSPN, 1/F' tuple-factor normalization)"
		}
		fmt.Fprintf(b, "%s%s: RSPN[%s] answers %s, resolving %d/%d filters\n",
			indent, kase, strings.Join(n.single.r.Tables, " |x| "), strings.Join(n.tables, ", "),
			countResolved(n.single.r, preds, n.single.ords), len(n.single.ords))
	default:
		fmt.Fprintf(b, "%scase 3 (Theorem 2): RSPN[%s] answers sub-join %s\n",
			indent, strings.Join(n.left.r.Tables, " |x| "), strings.Join(n.leftTables, ", "))
		for _, bp := range n.branches {
			fmt.Fprintf(b, "%s  branch %s via bridge %s<-%s (ratio count/|%s|):\n",
				indent, strings.Join(bp.br.tables, ", "), bp.br.bridgeOne, bp.br.bridgeMany, bp.br.head)
			bp.node.explain(b, indent+"    ", preds)
		}
	}
}

// countResolved counts the predicates at ords whose column r resolves.
func countResolved(r *rspn.RSPN, preds []query.Predicate, ords []int) int {
	n := 0
	for _, o := range ords {
		if r.ResolvesColumn(preds[o].Column) {
			n++
		}
	}
	return n
}
