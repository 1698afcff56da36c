package walorder_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/walorder"
)

func TestWalorderHost(t *testing.T) {
	analysistest.Run(t, "testdata", walorder.Analyzer, "repro/deepdb")
}

// TestWalorderShard checks the writer-side shapes the per-shard writer
// used to own, in a second fixture of the facade package.
func TestWalorderShard(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "writer"), walorder.Analyzer, "repro/deepdb")
}
