package table

// The materializing reference joins (joinref_test.go), for the external
// tests that compare IndexJoin with them on generated data sets.
var (
	FullOuterJoinRef = fullOuterJoinRef
	InnerJoinRef     = innerJoinRef
)

// InnerJoin materializes the inner equi-join of the base tables along the
// spec's edges: the rows of the full outer join in which every table is
// present, in the same order. The exact executor gathers IndexJoin itself.
func InnerJoin(tables map[string]*Table, spec JoinSpec) (*Table, error) {
	j, err := IndexJoin(tables, spec, true)
	if err != nil {
		return nil, err
	}
	return j.Table(), nil
}

// Rows returns each joined table's row vector, in fold order.
func (j *JoinIndex) Rows() [][]int { return j.rows }

// OffByOneRanks numbers the inner join like InnerJoinRanks, except that
// row r of the last table of the fold weighs one tuple more than it
// extends.
func OffByOneRanks(tables map[string]*Table, spec JoinSpec, r int) (*JoinRanks, error) {
	order, steps, err := foldSteps(tables, spec)
	if err != nil {
		return nil, err
	}
	w := make([][]int, len(order))
	for t, tb := range order {
		w[t] = make([]int, tb.rows)
		for i := range w[t] {
			w[t][i] = 1
		}
	}
	w[len(w)-1][r]++
	return newJoinRanks(order, steps, w), nil
}
