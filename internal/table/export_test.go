package table

// The materializing reference joins (joinref_test.go), for the external
// tests that hold Join's decoded tuples to them on generated data sets.
var (
	FullOuterJoinRef = fullOuterJoinRef
	InnerJoinRef     = innerJoinRef
)

// InnerJoin materializes the inner equi-join of the base tables along the
// spec's edges, every tuple of Join(…, true) decoded: the rows of the full
// outer join in which every table is present, in the same order.
func InnerJoin(tables map[string]*Table, spec JoinSpec) (*Table, error) {
	j, err := Join(tables, spec, true)
	if err != nil {
		return nil, err
	}
	return j.Decode(nil).Table(), nil
}

// OffByOneRanks numbers the inner join like Join(…, true), except that the
// last joined table's row in the first tuple weighs one tuple more than
// it extends.
func OffByOneRanks(tables map[string]*Table, spec JoinSpec) (*JoinRanks, error) {
	order, steps, err := foldSteps(tables, spec)
	if err != nil {
		return nil, err
	}
	w := unitWeights(order)
	if j := newJoinRanks(order, steps, unitWeights(order), true); j.NumRows() > 0 {
		w[len(w)-1][j.Decode([]int{0}).rows[len(w)-1][0]]++
	}
	return newJoinRanks(order, steps, w, true), nil
}

// DropOrphans numbers the full outer join like Join(…, false), except that
// the last step's orphans are left out.
func DropOrphans(tables map[string]*Table, spec JoinSpec) (*JoinRanks, error) {
	j, err := Join(tables, spec, false)
	if err != nil {
		return nil, err
	}
	cut := j.first[len(j.first)-1]
	j.roots, j.cum[0] = j.roots[:cut], j.cum[0][:cut+1]
	return j, nil
}
