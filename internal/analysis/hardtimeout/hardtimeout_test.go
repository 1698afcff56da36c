package hardtimeout_test

import (
	"testing"

	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/hardtimeout"
)

func TestHardtimeout(t *testing.T) {
	analysistest.Run(t, "testdata", hardtimeout.Analyzer, "repro/internal/pipeline")
}
