// Command quasii-report runs the full evaluation and emits a Markdown report
// of measured headline numbers, one section per paper figure. The checked-in
// EXPERIMENTS.md at the repository root is this command's output at the
// small scale; regenerate it after changes to the experiment drivers with
//
//	go run ./cmd/quasii-report -scale small -o EXPERIMENTS.md
//
// The full figure output (tables, charts) goes to stderr so the report on
// stdout stays clean:
//
//	quasii-report -scale medium > report.md 2> figures.log
//
// Name figures to run only those, extensions such as gridsweep included:
//
//	quasii-report -scale small gridsweep fig7
//
// With no names it runs the paper's figures in order, then patterns. An
// unknown name exits 2 and lists the known ones.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small, medium or large")
	seed := flag.Int64("seed", 0, "override the RNG seed (0 = scale default)")
	out := flag.String("o", "", "write the report to a file instead of stdout")
	flag.Parse()

	scale, ok := experiments.Scales[*scaleName]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	if *seed != 0 {
		scale.Seed = *seed
	}
	figures := flag.Args()
	if len(figures) == 0 {
		figures = append(append([]string{}, experiments.Order...), "patterns")
	}
	for _, name := range figures {
		if _, ok := experiments.Registry[name]; !ok {
			known := make([]string, 0, len(experiments.Registry))
			for k := range experiments.Registry {
				known = append(known, k)
			}
			sort.Strings(known)
			fmt.Fprintf(os.Stderr, "unknown figure %q (want %s)\n", name, strings.Join(known, ", "))
			os.Exit(2)
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintf(w, "# QUASII reproduction report\n\n")
	fmt.Fprintf(w, "<!-- Generated file. Regenerate with:\n")
	fmt.Fprintf(w, "       go run ./cmd/quasii-report -scale %s -o EXPERIMENTS.md\n", scale.Name)
	fmt.Fprintf(w, "     Absolute times vary per machine; the comparative notes are the\n")
	fmt.Fprintf(w, "     stable signal. -->\n\n")
	fmt.Fprintf(w, "Regenerate with `go run ./cmd/quasii-report -scale %s -o EXPERIMENTS.md`.\n\n", scale.Name)
	fmt.Fprintf(w, "Scale `%s` (uniform %d / neuro %d objects, %d clustered / %d uniform queries), seed %d.\n\n",
		scale.Name, scale.UniformN, scale.NeuroN, scale.ClusteredQueries, scale.UniformQueries, scale.Seed)
	fmt.Fprintf(w, "Every index in every figure returned identical result counts on every query\n")
	fmt.Fprintf(w, "(validated by the harness; a mismatch aborts the run).\n")

	start := time.Now()
	for _, name := range figures {
		driver := experiments.Registry[name]
		fmt.Fprintf(os.Stderr, "== running %s ==\n", name)
		result, err := driver(os.Stderr, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(w, "\n## %s\n\n", name)
		for _, note := range result.Notes {
			fmt.Fprintf(w, "- %s\n", note)
		}
	}
	fmt.Fprintf(w, "\n_Total run time: %v._\n", time.Since(start).Round(time.Millisecond))
}
