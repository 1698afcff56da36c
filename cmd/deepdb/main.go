// Command deepdb is the DeepDB command-line tool, a thin shell over the
// public deepdb package: it learns an RSPN ensemble over CSV data and
// answers cardinality and approximate aggregate queries against the model,
// without touching the data again at query time.
//
// Usage:
//
//	deepdb learn  -schema schema.json -data dir/ -out model.deepdb
//	deepdb estimate -model model.deepdb -sql "SELECT COUNT(*) FROM ..."
//	deepdb query  -model model.deepdb -sql "SELECT AVG(x) FROM ..."
//	deepdb explain -model model.deepdb -sql "SELECT COUNT(*) FROM ..."
//	deepdb serve  -model model.deepdb -addr :8491
//	deepdb demo
//
// The schema file is JSON in the shape of deepdb.Schema; query-side
// commands read the schema and per-table statistics persisted inside the
// model file, so the model alone is enough to serve estimates — no data
// directory needed, string-literal predicates included. Pass -data (one
// <table>.csv per table with a header row) only for -truth; tables whose
// categorical dictionaries disagree with the model's are refused.
// `estimate` prints a cardinality with its confidence interval; `query`
// prints the approximate result (with group keys decoded through the
// model's dictionaries); `explain` prints the execution plan without
// running the query.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/deepdb"
	"repro/internal/datagen"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch os.Args[1] {
	case "learn":
		err = cmdLearn(ctx, os.Args[2:])
	case "estimate":
		err = cmdQuery(ctx, os.Args[2:], modeEstimate)
	case "query":
		err = cmdQuery(ctx, os.Args[2:], modeQuery)
	case "explain":
		err = cmdQuery(ctx, os.Args[2:], modeExplain)
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "wal":
		err = cmdWAL(os.Args[2:])
	case "demo":
		err = cmdDemo(ctx)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "deepdb:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: deepdb <learn|estimate|query|explain|serve|wal|demo> [flags]
  learn    -schema schema.json -data dir -out model.deepdb [-budget 0.5] [-samples 100000]
  estimate -model model.deepdb -sql "SELECT COUNT(*) ..." [-data dir]
  query    -model model.deepdb -sql "SELECT AVG(col) ..." [-data dir]
  explain  -model model.deepdb -sql "SELECT COUNT(*) ..." [-data dir]
  serve    -model model.deepdb [-addr :8491] [-data dir] [-readonly] [-cache N] [-result-cache N]
           [-wal dir] [-durability sync|batched|off] [-drift 0.2] [-request-timeout 30s]
           [-max-body N] [-max-inflight N] [-pprof] [-cpuprofile prof.out]
  wal      inspect|dump -dir wal-dir [-after N]   (read-only log examination)
  demo     (self-contained demonstration on synthetic data)
(-data is only needed for -truth; the model file carries the statistics
and dictionaries query serving needs, including string predicates)`)
}

func cmdLearn(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("learn", flag.ExitOnError)
	schemaPath := fs.String("schema", "", "schema JSON file")
	dataDir := fs.String("data", "", "directory with <table>.csv files")
	out := fs.String("out", "model.deepdb", "output model file")
	budget := fs.Float64("budget", 0.5, "ensemble budget factor (Section 5.3)")
	samples := fs.Int("samples", 100000, "max training samples per RSPN")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *schemaPath == "" || *dataDir == "" {
		return fmt.Errorf("-schema and -data are required")
	}
	s, err := deepdb.LoadSchema(*schemaPath)
	if err != nil {
		return err
	}
	db, err := deepdb.Learn(ctx, s, *dataDir,
		deepdb.WithBudget(*budget),
		deepdb.WithMaxSamples(*samples))
	if err != nil {
		return err
	}
	fmt.Print(db.Describe())
	if err := db.Save(*out); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", *out)
	return nil
}

type queryMode int

const (
	modeEstimate queryMode = iota
	modeQuery
	modeExplain
)

func cmdQuery(ctx context.Context, args []string, mode queryMode) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dataDir := fs.String("data", "", "directory with <table>.csv files")
	model := fs.String("model", "model.deepdb", "model file from deepdb learn")
	sql := fs.String("sql", "", "query to answer")
	truth := fs.Bool("truth", false, "also compute the exact answer for comparison")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// The model file carries the statistics and dictionaries query serving
	// needs; -data is only required for -truth.
	if *sql == "" {
		return fmt.Errorf("-sql is required")
	}
	if *truth && *dataDir == "" {
		return fmt.Errorf("-truth needs -data (exact execution reads the base tables)")
	}
	var opts []deepdb.Option
	if *dataDir != "" {
		opts = append(opts, deepdb.WithDataDir(*dataDir))
	}
	db, err := deepdb.Open(ctx, *model, opts...)
	if err != nil {
		return err
	}
	start := time.Now()
	switch mode {
	case modeExplain:
		plan, err := db.Explain(ctx, *sql)
		if err != nil {
			return err
		}
		fmt.Print(plan)
	case modeEstimate:
		est, err := db.EstimateCardinality(ctx, *sql)
		if err != nil {
			return err
		}
		fmt.Printf("estimated cardinality: %.1f  (95%% CI [%.1f, %.1f], %v)\n",
			est.Value, est.CILow, est.CIHigh, time.Since(start).Round(time.Microsecond))
	case modeQuery:
		res, err := db.Query(ctx, *sql)
		if err != nil {
			return err
		}
		fmt.Printf("approximate result (%v):\n", time.Since(start).Round(time.Microsecond))
		for _, g := range res.Groups {
			fmt.Printf("  %-24s %14.3f  (95%% CI [%.3f, %.3f])\n",
				labelOf(g), g.Value, g.CILow, g.CIHigh)
		}
	}
	if *truth && mode != modeExplain {
		res, err := db.Exact(ctx, *sql)
		if err != nil {
			return err
		}
		fmt.Println("exact result:")
		for _, g := range res.Groups {
			fmt.Printf("  %-24s %14.3f\n", labelOf(g), g.Value)
		}
	}
	return nil
}

// labelOf renders a group's decoded key for display.
func labelOf(g deepdb.Group) string {
	if len(g.Labels) == 0 {
		return "(all)"
	}
	out := ""
	for i, l := range g.Labels {
		if i > 0 {
			out += ", "
		}
		out += l
	}
	return out
}

// cmdDemo runs an end-to-end demonstration on synthetic IMDb data.
func cmdDemo(ctx context.Context) error {
	fmt.Println("generating synthetic IMDb-style data (4000 titles) ...")
	s, tabs := datagen.IMDb(datagen.IMDbConfig{Titles: 4000, Seed: 1})
	start := time.Now()
	db, err := deepdb.LearnDataset(ctx, s, tabs, deepdb.WithMaxSamples(30000))
	if err != nil {
		return err
	}
	fmt.Printf("ensemble learned in %v\n%s", time.Since(start).Round(time.Millisecond), db.Describe())
	demo := []string{
		"SELECT COUNT(*) FROM title WHERE t_production_year >= 2000",
		"SELECT COUNT(*) FROM title NATURAL JOIN cast_info WHERE ci_role_id = 1 AND t_kind_id = 1",
		"SELECT AVG(t_production_year) FROM title JOIN movie_companies WHERE mc_company_type_id = 2",
		"SELECT COUNT(*) FROM title GROUP BY t_kind_id",
	}
	for _, sql := range demo {
		fmt.Printf("\n%s\n", sql)
		start = time.Now()
		res, err := db.Query(ctx, sql)
		if err != nil {
			return err
		}
		lat := time.Since(start)
		truth, err := db.Exact(ctx, sql)
		if err != nil {
			return err
		}
		exactByKey := map[string]float64{}
		for _, tg := range truth.Groups {
			exactByKey[fmt.Sprint(tg.Key)] = tg.Value
		}
		for i, g := range res.Groups {
			exactVal := ""
			if v, ok := exactByKey[fmt.Sprint(g.Key)]; ok {
				exactVal = fmt.Sprintf("   exact: %.1f", v)
			}
			fmt.Printf("  group %v: estimate %.1f  CI [%.1f, %.1f]%s\n",
				g.Key, g.Value, g.CILow, g.CIHigh, exactVal)
			if i > 8 {
				fmt.Printf("  ... (%d groups total)\n", len(res.Groups))
				break
			}
		}
		fmt.Printf("  latency: %v\n", lat.Round(time.Microsecond))
	}
	return nil
}
