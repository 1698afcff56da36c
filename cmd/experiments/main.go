// Command experiments regenerates the tables and figures of the DeepDB
// paper's evaluation on synthetic equivalents of its data sets.
//
// Usage:
//
//	experiments [-scale small|full] [-exp all|table1|table2|fig1|fig7|fig8|fig9|fig10|fig11|fig12|fig13|traintime]
//
// Each experiment prints rows mirroring the corresponding paper exhibit,
// with the paper's published numbers beside the measured ones where the
// paper gives them: this output is the paper-vs-measured record.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	scaleFlag := flag.String("scale", "full", "experiment scale: small or full")
	expFlag := flag.String("exp", "all", "comma-separated experiment ids, or all")
	flag.Parse()

	var scale bench.Scale
	switch *scaleFlag {
	case "small":
		scale = bench.SmallScale()
	case "full":
		scale = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}
	suite := bench.NewSuite(scale)

	runners := []struct {
		id  string
		run func() (*bench.Report, error)
	}{
		{"fig1", suite.RunFigure1},
		{"table1", suite.RunTable1},
		{"fig7", suite.RunFigure7},
		{"table2", suite.RunTable2},
		{"fig8", suite.RunFigure8},
		{"traintime", suite.RunTrainingTime},
		{"fig9", suite.RunFigure9},
		{"fig10", suite.RunFigure10},
		{"fig11", suite.RunFigure11},
		{"fig12", suite.RunFigure12},
		{"fig13", suite.RunFigure13},
	}
	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}
	failed := false
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		start := time.Now()
		rep, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Print(rep.String())
		fmt.Printf("(%s in %v)\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
