package snapdiscipline_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/snapdiscipline"
)

func TestSnapdiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", snapdiscipline.Analyzer, "repro/deepdb")
}

// TestSnapdisciplineShard checks the writer-side shapes the per-shard
// writer used to own, in a second fixture of the facade package.
func TestSnapdisciplineShard(t *testing.T) {
	analysistest.Run(t, filepath.Join("testdata", "writer"), snapdiscipline.Analyzer, "repro/deepdb")
}
