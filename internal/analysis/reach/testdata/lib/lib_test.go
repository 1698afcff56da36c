package lib

import "testing"

func TestOnlyFromTest(t *testing.T) {
	if OnlyFromTest() != Oracle() {
		t.Fatal("OnlyFromTest disagrees with Oracle")
	}
}
