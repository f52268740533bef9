package locman

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// reportConfig is a deterministic faulty run that populates every Report
// section: losses, retransmissions, an outage window, dropped calls,
// recovery latencies and a telemetry snapshot series.
func reportConfig() NetworkConfig {
	return NetworkConfig{
		Config: Config{
			Model:      TwoDimensional,
			MoveProb:   0.15,
			CallProb:   0.03,
			UpdateCost: 20,
			PollCost:   1,
			MaxDelay:   3,
		},
		Terminals: 8,
		Threshold: 2,
		Faults: FaultPlan{
			UpdateLoss:    0.2,
			PollLoss:      0.05,
			ReplyLoss:     0.05,
			UpdateRetries: 2,
			PageRetries:   2,
			Outages:       []Outage{{Start: 200, End: 400}},
		},
		SnapshotEvery: 500,
		Seed:          7,
	}
}

func buildReport(t *testing.T) *Report {
	t.Helper()
	m, err := SimulateNetworkSharded(reportConfig(), 2_000, 3)
	if err != nil {
		t.Fatal(err)
	}
	return NewReport(m)
}

// TestReportEngineEquivalence is the public-API face of the columnar
// engine's bit-identity contract: the full Report JSON — counters, costs,
// histograms, telemetry snapshot series — is byte-identical whichever
// engine produced it. (TestReportGolden already pins the columnar engine,
// the default, against the checked-in golden document.)
func TestReportEngineEquivalence(t *testing.T) {
	marshal := func(e Engine) []byte {
		t.Helper()
		cfg := reportConfig()
		cfg.Engine = e
		m, err := SimulateNetworkSharded(cfg, 2_000, 3)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	des, cols := marshal(EngineDES), marshal(EngineCols)
	if !bytes.Equal(cols, des) {
		t.Errorf("report JSON diverged between engines\ncols:\n%s\ndes:\n%s", cols, des)
	}
}

// TestReportGolden pins the exact JSON document a deterministic run
// produces — field names, ordering and bit-exact values. Any schema
// change must show up as a golden diff (and bump ReportSchema when
// breaking). Regenerate with: go test ./locman -run TestReportGolden -update
func TestReportGolden(t *testing.T) {
	r := buildReport(t)
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "report.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON diverged from %s (rerun with -update if intentional)\ngot:\n%s", golden, got)
	}
}

// TestReportRoundTrip checks the document decodes back into Report with
// unknown fields disallowed and survives the trip unchanged.
func TestReportRoundTrip(t *testing.T) {
	r := buildReport(t)
	if r.Schema != ReportSchema {
		t.Fatalf("schema %d, want %d", r.Schema, ReportSchema)
	}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var back Report
	if err := dec.Decode(&back); err != nil {
		t.Fatalf("decode with DisallowUnknownFields: %v", err)
	}
	if !reflect.DeepEqual(r, &back) {
		t.Error("report did not survive the JSON round trip")
	}
}

// TestReportInternalConsistency checks the cross-field invariants the
// schemacheck tool relies on.
func TestReportInternalConsistency(t *testing.T) {
	r := buildReport(t)
	if r.Delay.N != r.Calls-r.DroppedCalls {
		t.Errorf("delay samples %d != calls %d - dropped %d", r.Delay.N, r.Calls, r.DroppedCalls)
	}
	if r.DelayHist == nil || r.DelayHist.N != r.Delay.N {
		t.Errorf("delay histogram inconsistent with summary: %+v vs %+v", r.DelayHist, r.Delay)
	}
	if r.RecoveryHist == nil || r.RecoveryHist.N != r.Recovery.N {
		t.Errorf("recovery histogram inconsistent with summary: %+v vs %+v", r.RecoveryHist, r.Recovery)
	}
	if len(r.Snapshots) != 4 {
		t.Fatalf("%d snapshots, want 4", len(r.Snapshots))
	}
	last := r.Snapshots[len(r.Snapshots)-1]
	if last.Slot != r.Slots || last.Updates != r.Updates || last.Events != r.Events {
		t.Errorf("final snapshot %+v does not match report totals", last)
	}
	if r.LostUpdates == 0 || r.Retransmissions == 0 || r.OutageDeferred == 0 || r.Recovery.N == 0 {
		t.Errorf("fault machinery unexercised: %+v", r)
	}
}
