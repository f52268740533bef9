package jobs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/results"
	"repro/locman"
)

// runReport simulates a spec directly (bypassing the manager) and
// returns the report the job runner would journal.
func runReport(t *testing.T, spec Spec) *locman.Report {
	t.Helper()
	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	return locman.NewReport(metrics)
}

// TestResultRowFlattening pins the knob half of the row: explicit specs
// carry their knobs through with the documented zero-value spellings
// (nil scheme is "distance", nil partition "sdf"), scenario specs
// resolve to the registered model's knobs.
func TestResultRowFlattening(t *testing.T) {
	d := 2
	spec := testSpec()
	spec.Threshold = &d
	report := runReport(t, spec)

	row, err := ResultRow("j000007", spec, report)
	if err != nil {
		t.Fatal(err)
	}
	if row.Job != "j000007" {
		t.Errorf("Job = %q", row.Job)
	}
	if row.Scenario != "" || row.Scheme != "distance" || row.SchemeParam != 0 ||
		row.Partition != "sdf" || row.Model != "2d" || row.Engine != "cols" {
		t.Errorf("default dims wrong: %+v", row)
	}
	if row.D != 2 || row.Q != 0.05 || row.C != 0.01 || row.U != 100 || row.V != 10 ||
		row.M != 3 || row.Dynamic != 0 {
		t.Errorf("knob dims wrong: %+v", row)
	}
	if row.Terminals != int64(report.Terminals) || row.Slots != report.Slots ||
		row.Shards != 2 || row.Seed != 1 {
		t.Errorf("shape dims wrong: %+v", row)
	}
	if row.TotalCost != report.TotalCost || row.Updates != report.Updates ||
		row.Calls != report.Calls || row.Events != int64(report.Events) {
		t.Errorf("metrics wrong: %+v", row)
	}
	if report.DelayHist != nil && row.DelayP95 != report.DelayHist.P95 {
		t.Errorf("DelayP95 = %v, hist %v", row.DelayP95, report.DelayHist.P95)
	}

	// A scenario spec resolves the scenario's model: highway-commute is
	// the 1-D corridor under movement-based updates with M=6.
	sspec := Spec{Scenario: "highway-commute", Terminals: 10, Slots: 2_000, Shards: 2, Seed: 1}
	srow, err := ResultRow("j000008", sspec, runReport(t, sspec))
	if err != nil {
		t.Fatal(err)
	}
	if srow.Scenario != "highway-commute" || srow.Scheme != "movement" ||
		srow.SchemeParam != 6 || srow.Model != "1d" || srow.Q != 0.45 || srow.V != 5 {
		t.Errorf("scenario dims wrong: %+v", srow)
	}
	// No explicit threshold: the network-optimized sentinel flows through.
	if srow.D != -1 {
		t.Errorf("D = %d, want -1 (network-optimized)", srow.D)
	}

	// An invalid spec propagates the resolution error.
	if _, err := ResultRow("j000009", Spec{Scenario: "nope"}, report); err == nil {
		t.Error("unknown scenario flattened without error")
	}
}

// TestResultRowNilHistPercentiles: a report without histograms (e.g.
// hand-built metrics) flattens to NaN percentile columns, which every
// aggregate skips.
func TestResultRowNilHistPercentiles(t *testing.T) {
	spec := testSpec()
	report := runReport(t, spec)
	report.DelayHist = nil
	report.RecoveryHist = nil
	row, err := ResultRow("j000001", spec, report)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"delay_p50": row.DelayP50, "delay_p95": row.DelayP95, "delay_p99": row.DelayP99,
		"recovery_p50": row.RecoveryP50, "recovery_p95": row.RecoveryP95, "recovery_p99": row.RecoveryP99,
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s = %v, want NaN", name, v)
		}
	}
	// NaN metrics must still ingest (only dimensions must be finite).
	if err := results.NewStore().Ingest(row); err != nil {
		t.Fatalf("NaN-percentile row rejected: %v", err)
	}
}

// TestResultRowLiveVsDecodedIdentity proves the restart byte-identity
// premise: flattening the in-memory report (live done edge) and
// flattening the report decoded back from its journaled JSON document
// (recovery backfill) produce bit-identical rows.
func TestResultRowLiveVsDecodedIdentity(t *testing.T) {
	spec := testSpec()
	live := runReport(t, spec)

	// Encode exactly the way the job runner journals results.
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(live); err != nil {
		t.Fatal(err)
	}
	var decoded locman.Report
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}

	a, err := ResultRow("j000001", spec, live)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResultRow("j000001", spec, &decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !rowsBitIdentical(a, b) {
		t.Fatalf("live and journal-decoded rows differ:\nlive:    %+v\ndecoded: %+v", a, b)
	}
}

// rowsBitIdentical compares two rows field by field, floats at the bit
// level so NaN columns compare equal to themselves.
func rowsBitIdentical(a, b results.Row) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
			continue
		}
		if !fa.Equal(fb) {
			return false
		}
	}
	return true
}
