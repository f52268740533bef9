package main

import (
	"math/rand/v2"
	"runtime"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

// workload is one set of inputs the benchmark runs. README.md gives the
// reasoning behind each and how its load is offered.
type workload struct {
	name string
	why  string
	// layers are the per-layer metric name prefixes the workload
	// exercises; the traced run must measure every metric they match.
	layers []string
	run    func(b *bench) error
}

var workloads = []*workload{
	{
		name: "sweep-cluster",
		why:  "a sweep of small jobs through a coordinator and 2 workers with queries beside them: per-job HTTP, queue, journal, results-table and lease costs dominate",
		layers: []string{"stats.", "sim.partial", "locman.", "core.", "jobs.", "server.",
			"cluster.", "results."},
		run: runSweep,
	},
	{
		name: "long-faulty",
		why:  "one long lossy 24-terminal job on a checkpointing single-node daemon, followed over the NDJSON stream: the RNG-bound slot loop with fault, ack and wire paths live",
		layers: []string{"stats.", "sim.setup", "sim.slot", "sim.shard", "sim.events", "sim.alloc",
			"sim.merge", "sim.checkpoint", "locman.", "jobs.queue", "jobs.run", "jobs.journal_bytes",
			"jobs.checkpoints", "jobs.recover", "jobs.replayed", "server."},
		run: runLong,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// sizes fixes how big each workload's inputs are. fullSize is what the
// benchmark measures; the smoke test runs every workload at tinySize.
type sizes struct {
	// SetupReps is how many times the traced pass times engine set-up
	// per shard.
	SetupReps int

	SweepTerminals int
	SweepSlots     int64
	SweepSeeds     int
	// QueryEvery is how many jobs a sweep client completes between two
	// queries.
	QueryEvery int

	LongTerminals      int
	LongSlots          int64
	LongCheckpointEach int64
	LongSnapshotEach   int64
	// LongQueryPause is the query client's think time in milliseconds.
	LongQueryPause int

	// ProbeDraws is how many RNG draws the stats probes time.
	ProbeDraws int
}

func fullSize() sizes {
	return sizes{
		SetupReps:      5,
		SweepTerminals: 100, SweepSlots: 200, SweepSeeds: 6, QueryEvery: 2,
		LongTerminals: 24, LongSlots: 2_000_000, LongCheckpointEach: 250_000,
		LongSnapshotEach: 62_500, LongQueryPause: 50,
		ProbeDraws: 20_000_000,
	}
}

func tinySize() sizes {
	return sizes{
		SetupReps:      2,
		SweepTerminals: 20, SweepSlots: 200, SweepSeeds: 1, QueryEvery: 2,
		LongTerminals: 24, LongSlots: 40_000, LongCheckpointEach: 10_000,
		LongSnapshotEach: 5_000, LongQueryPause: 5,
		ProbeDraws: 100_000,
	}
}

// nproc is the number of clients.
func nproc() int { return min(runtime.GOMAXPROCS(0), 2) }

func intp(v int) *int { return &v }

// paperSpec is the paper's parameter set: 2-D, q=0.05, c=0.01, U=100,
// V=10, m=3, d=3.
func paperSpec(terminals int, slots int64, shards int, seed uint64) jobs.Spec {
	return jobs.Spec{
		Model: "2d", MoveProb: 0.05, CallProb: 0.01, UpdateCost: 100, PollCost: 10,
		MaxDelay: 3, Threshold: intp(3),
		Terminals: terminals, Slots: slots, Shards: shards, Seed: seed,
	}
}

// longSpec is long-faulty's one job: update loss 0.1 with 2 acked
// retries, telemetry frames on.
func longSpec(seed uint64, sz sizes) jobs.Spec {
	s := paperSpec(sz.LongTerminals, sz.LongSlots, 2, seed)
	s.Faults = &jobs.FaultSpec{UpdateLoss: 0.1, UpdateRetries: 2}
	s.SnapshotEvery = sz.LongSnapshotEach
	return s
}

// sweepThresholds are the thresholds each scenario is swept over; nil is
// the network-optimized threshold (pcnsim -d -1).
var sweepThresholds = []*int{nil, intp(1), intp(3), intp(5)}

// sweepSpecs is sweep-cluster's job list: every registered scenario ×
// every sweep threshold × SweepSeeds seeds drawn from the run seed, in a
// seed-shuffled order. Engine is left unset so the default is measured.
func sweepSpecs(seed uint64, sz sizes) []jobs.Spec {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var out []jobs.Spec
	for i := 0; i < sz.SweepSeeds; i++ {
		jobSeed := rng.Uint64() >> 1
		for _, sc := range locman.ScenarioNames() {
			for _, d := range sweepThresholds {
				out = append(out, jobs.Spec{
					Scenario: sc, Threshold: d,
					Terminals: sz.SweepTerminals, Slots: sz.SweepSlots, Shards: 2, Seed: jobSeed,
				})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// sweepQuery is the fixed grouped query the clients interleave: the cost
// surface of the sweep per scenario and threshold.
func sweepQuery() *results.Request {
	return &results.Request{
		GroupBy: []string{"scenario", "d"},
		Aggregates: []results.Aggregate{
			{Op: "count"},
			{Op: "mean", Column: "total_cost"},
			{Op: "p95", Column: "delay_p95"},
		},
	}
}
