package locman

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"
)

// checkpointConfig is a deliberately hostile run for checkpoint/resume:
// dynamic thresholds with heterogeneous per-terminal parameters, every
// fault knob on (so retransmission timers are routinely pending across
// slot boundaries — the one event species a checkpoint must serialize),
// and a telemetry cadence that divides neither the run length nor the
// checkpoint cadence, so frame and checkpoint boundaries interleave
// mid-batch for the columnar engine.
func checkpointConfig(engine Engine) NetworkConfig {
	return NetworkConfig{
		Config: Config{
			Model:      TwoDimensional,
			MoveProb:   0.2,
			CallProb:   0.04,
			UpdateCost: 50,
			PollCost:   1,
			MaxDelay:   3,
		},
		Terminals: 9,
		Threshold: 2,
		Dynamic:   true,
		Faults: FaultPlan{
			UpdateLoss:    0.25,
			PollLoss:      0.15,
			ReplyLoss:     0.1,
			UpdateRetries: 2,
			PageRetries:   3,
			Outages:       []Outage{{Start: 300, End: 450}, {Start: 1_200, End: 1_350}},
		},
		ReoptimizeEvery: 500,
		PerTerminal: func(i int) (float64, float64) {
			return 0.08 + 0.05*float64(i%4), 0.01 + 0.015*float64(i%3)
		},
		SnapshotEvery: 400,
		Seed:          11,
		Engine:        engine,
	}
}

const checkpointSlots = 1_500

// TestCheckpointResumeEquivalence is the crash-recovery analogue of
// TestEngineEquivalence and the merge gate for any checkpoint change:
// for every engine at every shard count in {1, 3, 7}, a run that is
// checkpointed at an odd interior cadence, serialized, deserialized and
// resumed from each emitted checkpoint must produce a Report whose JSON
// document is byte-identical to the uninterrupted run's — and the
// observed (checkpoint-emitting) run itself must be byte-identical too,
// proving capture never perturbs the simulation. Run under -race in CI.
func TestCheckpointResumeEquivalence(t *testing.T) {
	// 611 divides neither the 400-slot telemetry cadence, the 500-slot
	// reoptimization period, nor the 1500-slot run: checkpoints land at
	// 611 and 1222, both mid-batch from every other boundary's view.
	const every = 611
	engines := []Engine{EngineDES, EngineCols}
	shardCounts := []int{1, 3, 7}

	report := func(t *testing.T, m *NetworkMetrics) []byte {
		t.Helper()
		b, err := json.MarshalIndent(NewReport(m), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	for _, engine := range engines {
		for _, shards := range shardCounts {
			t.Run(fmt.Sprintf("%s/%dshards", engine, shards), func(t *testing.T) {
				cfg := checkpointConfig(engine)
				clean, err := SimulateNetworkSharded(cfg, checkpointSlots, shards)
				if err != nil {
					t.Fatal(err)
				}
				want := report(t, clean)

				var cps []*Checkpoint
				observed, err := SimulateNetworkCheckpointed(context.Background(),
					cfg, checkpointSlots, shards, every, func(cp *Checkpoint) {
						// The sink must not retain cp; round-trip it
						// through the wire format instead, which also
						// proves every emitted checkpoint serializes.
						data, err := EncodeCheckpoint(cp)
						if err != nil {
							t.Error(err)
							return
						}
						decoded, err := DecodeCheckpoint(data)
						if err != nil {
							t.Error(err)
							return
						}
						cps = append(cps, decoded)
					})
				if err != nil {
					t.Fatal(err)
				}
				if got := report(t, observed); !bytes.Equal(got, want) {
					t.Errorf("checkpoint capture perturbed the run:\n%s\nreference:\n%s", got, want)
				}
				if len(cps) != 2 || cps[0].Slot != every || cps[1].Slot != 2*every {
					t.Fatalf("expected checkpoints at slots %d and %d, got %d checkpoint(s)",
						every, 2*every, len(cps))
				}

				for _, cp := range cps {
					resumed, err := ResumeNetworkCheckpointed(context.Background(),
						cfg, checkpointSlots, shards, cp, 0, nil)
					if err != nil {
						t.Fatalf("resuming from slot %d: %v", cp.Slot, err)
					}
					if got := report(t, resumed); !bytes.Equal(got, want) {
						t.Errorf("resume from slot %d diverged from the uninterrupted run:\n%s\nreference:\n%s",
							cp.Slot, got, want)
					}
				}
			})
		}
	}
}

// TestCheckpointCrossEngineResume checks the engine-class contract on
// stored checkpoints. Checkpoints gob-encode Engine as an integer, and
// those written while the retired slot-batched engine existed carry 0
// (that engine) or 2 (the columnar engine's number then). Both hold
// batch-engine state: a columnar checkpoint re-stamped with either value
// and round-tripped through the wire format must resume on the columnar
// engine byte-identical to the uninterrupted run, while the reference
// engine, whose representation is its own class, must refuse it rather
// than silently diverge.
func TestCheckpointCrossEngineResume(t *testing.T) {
	const every = 611
	const shards = 3
	cfg := checkpointConfig(EngineCols)
	var cp *Checkpoint
	m, err := SimulateNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, shards, every, func(c *Checkpoint) {
			if c.Slot == every {
				data, err := EncodeCheckpoint(c)
				if err != nil {
					t.Error(err)
					return
				}
				cp, err = DecodeCheckpoint(data)
				if err != nil {
					t.Error(err)
				}
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.MarshalIndent(NewReport(m), "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	for _, legacy := range []Engine{0, 2} {
		stamped := *cp
		stamped.Engine = legacy
		data, err := EncodeCheckpoint(&stamped)
		if err != nil {
			t.Fatal(err)
		}
		old, err := DecodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		if old.Engine != legacy {
			t.Fatalf("engine %d decoded as %d", int(legacy), int(old.Engine))
		}
		resumed, err := ResumeNetworkCheckpointed(context.Background(),
			cfg, checkpointSlots, shards, old, 0, nil)
		if err != nil {
			t.Fatalf("cols resume of an engine-%d checkpoint: %v", int(legacy), err)
		}
		got, err := json.MarshalIndent(NewReport(resumed), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("cols resume of an engine-%d checkpoint diverged:\n%s\nreference:\n%s",
				int(legacy), got, want)
		}
		if _, err := ResumeNetworkCheckpointed(context.Background(),
			checkpointConfig(EngineDES), checkpointSlots, shards, old, 0, nil); err == nil {
			t.Errorf("the reference engine resumed an engine-%d batch checkpoint", int(legacy))
		}
	}
}

// TestCheckpointResumeValidation rejects checkpoints that do not
// describe the offered run: wrong shard count, wrong seed, corrupted
// bytes. shards == 0 adopts the checkpoint's own partition.
func TestCheckpointResumeValidation(t *testing.T) {
	const every = 611
	cfg := checkpointConfig(EngineCols)
	var cp *Checkpoint
	var raw []byte
	if _, err := SimulateNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 3, every, func(c *Checkpoint) {
			if c.Slot == every {
				data, err := EncodeCheckpoint(c)
				if err != nil {
					t.Error(err)
					return
				}
				raw = data
				cp, err = DecodeCheckpoint(data)
				if err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
		t.Fatal(err)
	}

	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 7, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched shard count should fail")
	}
	badSeed := cfg
	badSeed.Seed = 99
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		badSeed, checkpointSlots, 3, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched seed should fail")
	}
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots-1, 3, cp, 0, nil); err == nil {
		t.Error("resume with a mismatched run length should fail")
	}

	// shards == 0 adopts the checkpoint's partition instead of guessing
	// from GOMAXPROCS.
	if _, err := ResumeNetworkCheckpointed(context.Background(),
		cfg, checkpointSlots, 0, cp, 0, nil); err != nil {
		t.Errorf("resume with shards 0 should adopt the checkpoint's 3: %v", err)
	}

	// Corruption anywhere in the payload must be caught by the trailer.
	raw[len(raw)/2] ^= 0x40
	if _, err := DecodeCheckpoint(raw); err == nil {
		t.Error("decoding a corrupted checkpoint should fail")
	}
	if _, err := DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Error("decoding garbage should fail")
	}
}
