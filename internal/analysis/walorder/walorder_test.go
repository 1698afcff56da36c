package walorder_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/walorder"
)

func TestWalorderHost(t *testing.T) {
	analysistest.Run(t, "testdata", walorder.Analyzer, "repro/deepdb")
}

func TestWalorderShard(t *testing.T) {
	analysistest.Run(t, "testdata", walorder.Analyzer, "repro/internal/shard")
}
