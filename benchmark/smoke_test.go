package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs every workload end to end, untraced and traced, against a
// really spawned server at a tiny scale: it catches bit-rot in the harness
// and in the program surface it drives, not performance.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped under -short")
	}
	work := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{root: "..", workDir: work, outDir: filepath.Join(work, "out"), sz: testSizes,
				seed: 11, window: 300 * time.Millisecond, trace: traced, log: io.Discard}
			res, err := runWorkload(cfg, sp)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !res.correct() {
				t.Errorf("%s traced=%v: failed %d of %d, problems %v", sp.name, traced, res.failed, res.attempted, res.problems)
			}
			if len(res.metrics) == 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d metrics from %d requests", sp.name, traced, len(res.metrics), res.attempted)
			}
			for _, m := range res.metrics {
				if m.value != m.value {
					t.Errorf("%s: %s is NaN", sp.name, m.name)
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+sp.name+".json")); err != nil {
					t.Errorf("%s: no trace written: %v", sp.name, err)
				}
			}
		}
	}
}
