package locman

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
)

// TestEngineEquivalence is the cols-vs-DES differential suite and the
// merge gate for any engine change: over the cross product of
// {distance, timer, movement update schemes} × {1d, 2d} ×
// {static, dynamic threshold} × {zero faults, lossy+outage}, every
// engine at every shard count in {1, 3, 7} must produce a Report whose
// JSON document is byte-identical to the single-shard reference
// engine's. Comparing the full Report bytes — not just headline metrics
// — covers the counters, per-call delay and recovery summaries, both
// histograms and the telemetry snapshot series; byte equality against
// one reference makes every (engine, shard count) pair equal by
// transitivity. Run under -race in CI.
//
// The timer and movement schemes run on a jittered heterogeneous Fleet
// (covering the fleet path's shard invariance in the same stroke) and
// skip the dynamic mode, which is distance-only by validation. The
// movement count (5) exceeds the paging radius (2), so out-of-area calls
// exercise the fallback/recovery paging paths even in the clean cases;
// the timer period (37) divides neither the snapshot cadence nor the run
// length, so refresh deadlines land mid-batch for the columnar engine.
func TestEngineEquivalence(t *testing.T) {
	schemes := []struct {
		name   string
		scheme UpdateScheme
	}{
		{"distance", nil},
		{"timer", TimerUpdate(37)},
		{"movement", MovementUpdate(5)},
	}
	grids := []struct {
		name  string
		model Model
	}{
		{"1d", OneDimensional},
		{"2d", TwoDimensional},
	}
	modes := []struct {
		name    string
		dynamic bool
	}{
		{"static", false},
		{"dynamic", true},
	}
	faults := []struct {
		name string
		plan FaultPlan
	}{
		{"clean", FaultPlan{}},
		{"lossy", FaultPlan{
			UpdateLoss:    0.25,
			PollLoss:      0.15,
			ReplyLoss:     0.1,
			UpdateRetries: 2,
			PageRetries:   3,
			Outages:       []Outage{{Start: 300, End: 450}, {Start: 1_200, End: 1_350}},
		}},
	}
	engines := []Engine{EngineDES, EngineCols}
	shardCounts := []int{1, 3, 7}

	config := func(scheme UpdateScheme, model Model, dynamic bool, plan FaultPlan) NetworkConfig {
		cfg := NetworkConfig{
			Config: Config{
				Model:      model,
				MoveProb:   0.2,
				CallProb:   0.04,
				UpdateCost: 50,
				PollCost:   1,
				MaxDelay:   3,
			},
			Terminals: 9,
			Threshold: 2,
			Dynamic:   dynamic,
			Faults:    plan,
			// A cadence that divides neither the run length nor the
			// dynamic reoptimization period, so frame boundaries land
			// mid-batch for the columnar engine.
			SnapshotEvery: 400,
			Seed:          11,
		}
		if dynamic {
			cfg.ReoptimizeEvery = 500
			cfg.PerTerminal = func(i int) (float64, float64) {
				return 0.08 + 0.05*float64(i%4), 0.01 + 0.015*float64(i%3)
			}
		}
		if scheme != nil {
			cfg.Scheme = scheme
			cfg.Fleet = &Fleet{Groups: []FleetGroup{
				{MoveProb: 0.25, CallProb: 0.03, QJitter: 0.5, CJitter: 0.5},
				{MoveProb: 0.1, CallProb: 0.06, QJitter: 0.2},
			}}
		}
		return cfg
	}
	const slots = 1_500

	marshal := func(t *testing.T, cfg NetworkConfig, engine Engine, shards int) []byte {
		t.Helper()
		cfg.Engine = engine
		m, err := SimulateNetworkSharded(cfg, slots, shards)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, sch := range schemes {
		for _, g := range grids {
			for _, mode := range modes {
				if mode.dynamic && sch.scheme != nil {
					continue // the dynamic mechanism is distance-only
				}
				for _, f := range faults {
					t.Run(fmt.Sprintf("%s/%s/%s/%s", sch.name, g.name, mode.name, f.name), func(t *testing.T) {
						cfg := config(sch.scheme, g.model, mode.dynamic, f.plan)
						want := marshal(t, cfg, EngineDES, 1)
						if f.plan.UpdateLoss > 0 && bytes.Contains(want, []byte(`"lost_updates": 0,`)) {
							t.Fatal("lossy plan exercised no losses; the case covers nothing")
						}
						if sch.scheme != nil && bytes.Contains(want, []byte(`"updates": 0,`)) {
							t.Fatalf("%s scheme sent no updates; the case covers nothing", sch.name)
						}
						for _, engine := range engines {
							for _, shards := range shardCounts {
								if engine == EngineDES && shards == 1 {
									continue // the reference itself
								}
								got := marshal(t, cfg, engine, shards)
								if !bytes.Equal(got, want) {
									t.Errorf("%s engine at %d shard(s) diverged from the single-shard reference:\n%s\nreference:\n%s",
										engine, shards, got, want)
								}
							}
						}
					})
				}
			}
		}
	}
}
