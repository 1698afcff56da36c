package table

// The materializing reference joins (joinref_test.go), for the external
// tests that compare IndexJoin with them on generated data sets.
var (
	FullOuterJoinRef = fullOuterJoinRef
	InnerJoinRef     = innerJoinRef
)

// InnerJoin materializes the inner equi-join of the base tables along the
// spec's edges: the rows of FullOuterJoin in which every table is present,
// in the same order. The exact executor gathers IndexJoin itself.
func InnerJoin(tables map[string]*Table, spec JoinSpec) (*Table, error) {
	j, err := IndexJoin(tables, spec, true)
	if err != nil {
		return nil, err
	}
	return j.Table(), nil
}
