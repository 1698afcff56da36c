package core

// export_test.go holds the test seams of the grouped executor's memo.

// memoEntries counts the memo's live entries per call or count sub-tree,
// over both of its scopes.
func (m *keyMemo) memoEntries() map[*keyReads]int {
	out := map[*keyReads]int{}
	for _, ests := range []map[memoKey]estimator{m.long, m.chunk} {
		for mk := range ests {
			out[mk.call]++
		}
	}
	return out
}

// stepChunk runs the iterator's next key chunk, whatever it yields, and
// returns its memo; nil once the key space is exhausted or the chunk
// failed.
func (it *GroupIter) stepChunk() *keyMemo {
	if !it.step() {
		return nil
	}
	return it.memo
}
