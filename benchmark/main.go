// Command benchmark is the repository's end-to-end benchmark: it learns and
// saves models through the public deepdb facade, builds ./cmd/deepdb from
// the checkout, spawns `deepdb serve` and drives it over two loopback
// keep-alive HTTP connections, checks the answers, and reports the metrics
// BENCHMARK.json names. See README.md for the workloads, the metric
// glossary and how to read the traces.
//
//	benchmark/run.sh --workload card_hot --seed 1 --seconds 10 --trace 0   # one run, as the pipeline calls it
//	benchmark/run.sh -seed 1                                               # all workloads, untraced and traced
//	benchmark/run.sh -selfcheck                                            # two full sets, compared against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (card_adhoc, card_hot, aqp_groupby, mixed_rw); empty runs all, untraced then traced")
	seed := flag.Int64("seed", 1, "seed of the generated traffic")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice, untraced, and fail if an end-to-end metric differs by more than its bound")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [--workload name] [--seed n] [--seconds s] [--trace 0|1] [-selfcheck]")
		os.Exit(2)
	}
	cfg := runConfig{
		root:    ".",
		workDir: ".bench_build",
		outDir:  filepath.Join("benchmark", "out"),
		sz:      benchSizes,
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		log:     os.Stderr,
	}
	printHeader(cfg)
	var err error
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg)
	case *workload == "":
		err = runAll(cfg)
	default:
		cfg.trace = *trace == 1
		err = runOne(cfg, *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func printHeader(cfg runConfig) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", cfg.root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	fmt.Printf("# deepdb benchmark: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, window %v\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), cfg.seed, cfg.window)
}

var errIncorrect = fmt.Errorf("a correctness gate failed")

// runOne is the pipeline's entry point: one workload, one trace mode, the
// result object as the last line of standard output.
func runOne(cfg runConfig, name string) error {
	sp, ok := specByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(cfg, sp)
	if err != nil {
		return err
	}
	printResult(res)
	fmt.Println(resultJSON(res))
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload untraced and then traced.
func runAll(cfg runConfig) error {
	bad := false
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			res, err := runWorkload(cfg, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			printResult(res)
			bad = bad || !res.correct()
		}
	}
	if bad {
		return errIncorrect
	}
	return nil
}

func printResult(res *result) {
	for _, m := range res.metrics {
		line := fmt.Sprintf("%-12s %-36s %14.4f %-6s", res.workload, m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		fmt.Println(strings.TrimRight(line, " "))
	}
	fmt.Printf("%-12s attempted %d failed %d correct %v\n", res.workload, res.attempted, res.failed, res.correct())
	for _, p := range res.problems {
		fmt.Printf("%-12s PROBLEM %s\n", res.workload, p)
	}
}

// resultJSON renders the one-line result object of the benchmark contract.
func resultJSON(res *result) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]value{}}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		// Only a NaN or Inf metric can get here; it is a harness bug.
		panic(err)
	}
	return string(b)
}

// bounds reads the regression bound of every end-to-end metric from
// BENCHMARK.json, the one place they are fixed.
func bounds(root string) (map[string]float64, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var f struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	bound := map[string]float64{}
	for _, m := range f.EndToEnd {
		bound[m.Name] = m.Bound
	}
	return bound, nil
}

// runSelfcheck runs the full untraced suite twice back to back on the same
// checkout and fails when any end-to-end metric of any workload differs
// between the two by more than the metric's own bound.
func runSelfcheck(cfg runConfig) error {
	bound, err := bounds(cfg.root)
	if err != nil {
		return err
	}
	runs := [2]map[string]*result{{}, {}}
	for i := range runs {
		for _, sp := range specs {
			res, err := runWorkload(cfg, sp)
			if err != nil {
				return fmt.Errorf("%s: %w", sp.name, err)
			}
			if !res.correct() {
				printResult(res)
				return errIncorrect
			}
			runs[i][sp.name] = res
		}
	}
	fmt.Printf("%-12s %-12s %14s %14s %8s %6s\n", "workload", "metric", "run1", "run2", "differ", "bound")
	bad := 0
	for _, sp := range specs {
		for k, m1 := range runs[0][sp.name].metrics {
			m2 := runs[1][sp.name].metrics[k]
			differ := math.Abs(m2.value-m1.value) / math.Abs(m1.value)
			verdict := ""
			if differ > bound[m1.name] {
				verdict = "  EXCEEDS"
				bad++
			}
			fmt.Printf("%-12s %-12s %14.4f %14.4f %7.2f%% %5.0f%%%s\n",
				sp.name, m1.name, m1.value, m2.value, 100*differ, 100*bound[m1.name], verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metrics differ by more than their bound between two runs of the same code", bad)
	}
	return nil
}
