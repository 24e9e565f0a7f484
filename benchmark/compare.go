package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// ledger is the comparable form of one or more passes over all workloads:
// one row per (workload, end-to-end metric) with the value of every pass.
// `stability` writes one; `compare` reads two (and also accepts the
// results.json of a plain run, which is a ledger with one value per row).
type ledger struct {
	Schema  string      `json:"schema"`
	Options options     `json:"options"`
	Env     environment `json:"environment"`
	Runs    int         `json:"runs"`
	Rows    []ledgerRow `json:"rows"`
	Claim   *string     `json:"claim"`
}

type ledgerRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Better   string    `json:"better"`
	Bound    float64   `json:"bound"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Spread   float64   `json:"spread"` // interquartile distance ÷ median; -1 with fewer than two values
}

// add appends one pass to the ledger.
func (l *ledger) add(set *runSet) {
	l.Runs++
	for _, w := range set.Workloads {
		for _, m := range w.EndToEnd {
			row := l.row(w.Workload, m)
			row.Values = append(row.Values, m.Value)
		}
	}
}

func (l *ledger) row(workload string, m reported) *ledgerRow {
	for i := range l.Rows {
		if l.Rows[i].Workload == workload && l.Rows[i].Metric == m.Name {
			return &l.Rows[i]
		}
	}
	l.Rows = append(l.Rows, ledgerRow{Workload: workload, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	return &l.Rows[len(l.Rows)-1]
}

// finish computes each row's median and spread.
func (l *ledger) finish() {
	for i := range l.Rows {
		r := &l.Rows[i]
		r.Median = median(r.Values)
		r.Spread = -1
		if sp := spread(r.Values); !math.IsNaN(sp) {
			r.Spread = sp
		}
	}
}

// readLedger loads a stability ledger or a plain run's results.
func readLedger(path string) (*ledger, error) {
	var l ledger
	if err := readJSON(path, &l); err != nil {
		return nil, err
	}
	if len(l.Rows) > 0 {
		return &l, nil
	}
	var set runSet
	if err := readJSON(path, &set); err != nil {
		return nil, err
	}
	if len(set.Workloads) == 0 {
		return nil, fmt.Errorf("%s holds neither a stability ledger nor a run's results", path)
	}
	l = ledger{Schema: set.Schema, Options: set.Options, Env: set.Env}
	l.add(&set)
	l.finish()
	return &l, nil
}

// verdict judges one row of B against the same row of A. worse is how much
// B's median is worse than A's, as a share of A's (negative = better).
func verdict(a, b ledgerRow) (worse float64, word string) {
	worse = (b.Median - a.Median) / math.Abs(a.Median)
	if a.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.Spread > a.Bound:
		// A's own runs disagree by more than the bound: a difference of
		// that size proves nothing either way.
		word = "unresolved"
	case worse > a.Bound:
		word = "REGRESSED"
	case worse < -a.Bound:
		word = "improved"
	default:
		word = "unchanged"
	}
	if a.Spread < 0 && word != "REGRESSED" {
		word += " (one run: spread unknown)"
	}
	return worse, word
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: quasii-benchmark compare A.json B.json")
		return 2
	}
	a, err := readLedger(args[0])
	if err == nil {
		var b *ledger
		if b, err = readLedger(args[1]); err == nil {
			return compare(os.Stdout, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// compare prints one row per (metric, workload) and returns 1 if any row
// regressed.
func compare(w io.Writer, a, b *ledger) int {
	fmt.Fprintf(w, "A: %s, %d run(s), seed %d    B: %s, %d run(s), seed %d\n",
		a.Env.Commit, a.Runs, a.Options.Seed, b.Env.Commit, b.Runs, b.Options.Seed)
	fmt.Fprintf(w, "%-15s %-15s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "A spread", "verdict")
	status := 0
	for _, ra := range a.Rows {
		var rb *ledgerRow
		for i := range b.Rows {
			if b.Rows[i].Workload == ra.Workload && b.Rows[i].Metric == ra.Metric {
				rb = &b.Rows[i]
			}
		}
		if rb == nil {
			fmt.Fprintf(w, "%-15s %-15s %14.4f %14s %8s %6.0f%% %8s  missing in B\n", ra.Workload, ra.Metric, ra.Median, "-", "-", ra.Bound*100, "-")
			status = 1
			continue
		}
		worse, word := verdict(ra, *rb)
		sp := "      -"
		if ra.Spread >= 0 {
			sp = fmt.Sprintf("%6.1f%%", ra.Spread*100)
		}
		fmt.Fprintf(w, "%-15s %-15s %14.4f %14.4f %+7.1f%% %6.0f%% %8s  %s\n",
			ra.Workload, ra.Metric, ra.Median, rb.Median, worse*100, ra.Bound*100, sp, word)
		if word == "REGRESSED" {
			status = 1
		}
	}
	return status
}

func stabilityMain(args []string) int {
	runs := 5
	opts, rest, err := parseFlags("quasii-benchmark stability", args, func(fs *flag.FlagSet) {
		fs.IntVar(&runs, "runs", runs, "passes over all workloads")
	})
	if err != nil || len(rest) > 0 || opts.Workload != "" || opts.Trace != 0 || runs < 2 {
		fmt.Fprintln(os.Stderr, "usage: quasii-benchmark stability [-runs N≥2] [-seed N] [-seconds S] [-scale full|smoke] [-out DIR]")
		return 2
	}
	root, err := repoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer house.guard(0, "stability")()
	l := &ledger{Schema: schemaVersion, Options: opts, Env: newEnvironment(root)}
	for r := 0; r < runs; r++ {
		fmt.Printf("---- pass %d of %d\n", r+1, runs)
		set, err := runAll(root, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		l.add(set)
	}
	l.finish()
	path := filepath.Join(opts.Out, "stability.json")
	if err := writeJSON(path, l); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Printf("\n%-15s %-15s %14s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	status := 0
	for _, r := range l.Rows {
		note := ""
		if r.Spread > r.Bound {
			note = "  exceeds its bound: lengthen the run or demote the metric"
			status = 1
		}
		fmt.Printf("%-15s %-15s %14.4f %8.1f%% %6.0f%%%s\n", r.Workload, r.Metric, r.Median, r.Spread*100, r.Bound*100, note)
	}
	fmt.Printf("\nrecorded in %s\n\"claim\": null\n", path)
	return status
}
