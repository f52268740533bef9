package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/locman"
)

// runArgs drives the pcnsim entry point with a tiny run shape appended.
func runArgs(args ...string) (string, error) {
	var stdout, stderr bytes.Buffer
	args = append(args, "-terminals", "3", "-slots", "200", "-shards", "1", "-json")
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

// TestParseOutages checks pcnsim's -outage reaches jobs.ParseOutages:
// every window it accepts runs, and every one it rejects stops pcnsim
// with its error before any simulation.
func TestParseOutages(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"single", "100:200"},
		{"multiple", "100:200,5000:5500"},
		{"spaces", " 1 : 2 "},
		{"zero start", "0:10"},
		{"no colon", "100"},
		{"garbage start", "x:200"},
		{"garbage end", "100:y"},
		{"inverted", "200:100"},
		{"empty window", "100:100"},
		{"negative start", "-5:10"},
		{"negative both", "-10:-5"},
		{"bad second window", "100:200,300:250"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, want := jobs.ParseOutages(tc.in)
			_, err := runArgs("-outage", tc.in)
			if fmt.Sprint(err) != fmt.Sprint(want) {
				t.Errorf("run error %v, want %v", err, want)
			}
		})
	}
}

// TestScenarioFlagConflicts checks the -scenario guard through the
// command: model flags are refused by name, while the run-shape flags
// and pcnsim's own -json pass.
func TestScenarioFlagConflicts(t *testing.T) {
	_, err := runArgs("-scenario", "baseline", "-q", "0.3", "-hetero")
	if want := "conflicting flag(s): -q, -hetero"; err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Errorf("err = %v, want suffix %q", err, want)
	}
	if _, err := runArgs("-scenario", "baseline", "-seed", "2", "-engine", "des",
		"-telemetry-every", "50", "-d", "2"); err != nil {
		t.Errorf("run-shape flags refused: %v", err)
	}
}

// TestRunValidatesSpec holds pcnsim to the job service's validation: a
// Spec the service rejects is rejected here too, not clamped.
func TestRunValidatesSpec(t *testing.T) {
	for _, n := range []string{"0", "-5"} {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-terminals", n, "-slots", "100"}, &stdout, &stderr)
		if want := "terminals must be positive, got " + n; err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-terminals %s: err = %v, want %q", n, err, want)
		}
		if stdout.Len() != 0 {
			t.Errorf("-terminals %s simulated:\n%s", n, stdout.String())
		}
	}
}

// TestRunJSONMatchesDirect checks pcnsim -json prints exactly the
// indented report of a direct engine run with the same configuration.
func TestRunJSONMatchesDirect(t *testing.T) {
	got, err := runArgs("-loss", "0.2", "-seed", "5")
	if err != nil {
		t.Fatal(err)
	}
	m, err := locman.SimulateNetworkSharded(locman.NetworkConfig{
		Config: locman.Config{
			Model: locman.TwoDimensional, MoveProb: 0.05, CallProb: 0.01,
			UpdateCost: 100, PollCost: 10, MaxDelay: 3,
		},
		Terminals: 3,
		Threshold: -1,
		Faults:    locman.FaultPlan{UpdateLoss: 0.2},
		Seed:      5,
	}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(locman.NewReport(m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want)+"\n" {
		t.Errorf("pcnsim -json diverged from the direct run:\n%s\nwant:\n%s", got, want)
	}
}

// TestRunHelp checks -h prints the usage and reports flag.ErrHelp, which
// main turns into a clean exit.
func TestRunHelp(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("err = %v, want flag.ErrHelp", err)
	}
	for _, f := range []string{"-partition", "-reoptimize-every", "-json", "-scenarios"} {
		if !strings.Contains(stderr.String(), f) {
			t.Errorf("usage does not list %s", f)
		}
	}
}

func TestPercent(t *testing.T) {
	for _, tc := range []struct {
		part, whole int64
		want        string
	}{
		{0, 0, "0.00%"},
		{5, 0, "0.00%"},
		{1, 4, "25.00%"},
		{4, 4, "100.00%"},
		{1, 3, "33.33%"},
	} {
		if got := percent(tc.part, tc.whole); got != tc.want {
			t.Errorf("percent(%d, %d) = %q, want %q", tc.part, tc.whole, got, tc.want)
		}
	}
}

// runReport produces a real report from a small deterministic faulty run,
// so printReport is exercised against engine-shaped data.
func runReport(t *testing.T) *locman.Report {
	t.Helper()
	m, err := locman.SimulateNetworkSharded(locman.NetworkConfig{
		Config: locman.Config{
			Model: locman.TwoDimensional, MoveProb: 0.15, CallProb: 0.03,
			UpdateCost: 20, PollCost: 1, MaxDelay: 3,
		},
		Terminals: 6,
		Threshold: 2,
		Faults:    locman.FaultPlan{UpdateLoss: 0.3, UpdateRetries: 2, PageRetries: 2},
		Seed:      11,
	}, 2_000, 2)
	if err != nil {
		t.Fatal(err)
	}
	return locman.NewReport(m)
}

// TestPrintReportLostUpdates checks the lost-updates line is labelled and
// computed against transmission attempts — the population the loss
// probability applies to — so the printed rate tracks the injected one.
func TestPrintReportLostUpdates(t *testing.T) {
	r := runReport(t)
	if r.LostUpdates == 0 {
		t.Fatal("run injected no losses")
	}
	var b strings.Builder
	printReport(&b, r)
	out := b.String()
	want := "(" + percent(r.LostUpdates, r.Updates) + " of "
	line := lineContaining(out, "lost updates")
	if line == "" || !strings.Contains(line, want) || !strings.Contains(line, "attempts") {
		t.Errorf("lost-updates line %q does not report against attempts (want %q)", line, want)
	}
}

// TestPrintReportThresholdUsage checks the threshold-usage line appears
// exactly when there is usage to show.
func TestPrintReportThresholdUsage(t *testing.T) {
	r := runReport(t)
	var with strings.Builder
	printReport(&with, r)
	if !strings.Contains(with.String(), "threshold usage") {
		t.Error("threshold usage line missing from a run that recorded usage")
	}

	r.ThresholdSlots = nil
	var without strings.Builder
	printReport(&without, r)
	if strings.Contains(without.String(), "threshold usage") {
		t.Error("empty threshold usage printed a bare label line")
	}
}

// TestPrintReportQuantiles checks the tail-quantile lines follow the
// histograms: present with samples, absent without.
func TestPrintReportQuantiles(t *testing.T) {
	r := runReport(t)
	var b strings.Builder
	printReport(&b, r)
	if !strings.Contains(b.String(), "delay tail") {
		t.Error("delay tail line missing despite samples")
	}

	r.DelayHist = nil
	r.RecoveryHist = nil
	var bare strings.Builder
	printReport(&bare, r)
	if strings.Contains(bare.String(), "delay tail") || strings.Contains(bare.String(), "recovery tail") {
		t.Error("tail lines printed without histograms")
	}
}

// lineContaining returns the first output line containing substr.
func lineContaining(out, substr string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return ""
}
