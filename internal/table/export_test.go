package table

// The materializing reference joins (joinref_test.go), for the external
// tests that compare IndexJoin with them on generated data sets.
var (
	FullOuterJoinRef = fullOuterJoinRef
	InnerJoinRef     = innerJoinRef
)
