package main

import (
	"bytes"
	"strings"
	"testing"
)

func row(metric, better string, bound float64, values ...float64) ledgerRow {
	return ledgerRow{Workload: "w", Metric: metric, Unit: "us", Better: better, Bound: bound, Values: values}
}

func TestVerdicts(t *testing.T) {
	a := &ledger{Rows: []ledgerRow{
		row("steady_lower", "lower", 0.10, 100, 101, 99, 100, 100),
		row("steady_higher", "higher", 0.10, 100, 101, 99, 100, 100),
		row("noisy", "lower", 0.10, 100, 140, 70, 100, 125), // own spread far beyond the bound
		row("single", "lower", 0.10, 100),
		row("gone", "lower", 0.10, 100, 100),
	}, Runs: 5}
	b := &ledger{Rows: []ledgerRow{
		row("steady_lower", "lower", 0.10, 120, 121, 119),   // 20 % slower
		row("steady_higher", "higher", 0.10, 120, 121, 119), // 20 % more throughput
		row("noisy", "lower", 0.10, 130, 130, 130),
		row("single", "lower", 0.10, 105),
	}, Runs: 3}
	a.finish()
	b.finish()
	want := map[string]string{
		"steady_lower":  "REGRESSED",
		"steady_higher": "improved",
		"noisy":         "unresolved",
		"single":        "unchanged (one run: spread unknown)",
	}
	for _, ra := range a.Rows[:4] {
		for _, rb := range b.Rows {
			if rb.Metric == ra.Metric {
				if _, word := verdict(ra, rb); word != want[ra.Metric] {
					t.Errorf("%s: verdict %q, want %q", ra.Metric, word, want[ra.Metric])
				}
			}
		}
	}
	var out bytes.Buffer
	if status := compare(&out, a, b); status != 1 {
		t.Errorf("compare status %d, want 1 (a regression and a missing row)", status)
	}
	for _, s := range []string{"REGRESSED", "improved", "unresolved", "missing in B"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("compare output lacks %q:\n%s", s, out.String())
		}
	}
	if strings.Contains(strings.ReplaceAll(out.String(), "unchanged (one run", ""), "noisy          "+"unchanged") {
		t.Error("a row whose own spread exceeds the bound must not read unchanged")
	}
}
