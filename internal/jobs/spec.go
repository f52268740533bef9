package jobs

import (
	"fmt"
	"runtime"
	"strings"

	"repro/locman"
)

// SpecSchema versions the JSON job-descriptor layout accepted by the job
// service (pcnserve) and emitted by its API; it increments on any
// breaking change so clients can reject documents they do not
// understand. It also versions the job View documents, which embed the
// Spec. Schema 2 added the update-scheme, scenario and fleet fields;
// every schema-1 document is also a valid schema-2 document (the new
// fields all default to the historical behaviour), so SpecSchemaV1
// documents are still accepted on read.
const (
	SpecSchema   = 2
	SpecSchemaV1 = 1
)

// Spec is the JSON job descriptor: a complete, self-contained
// description of one PCN simulation run — the analytical configuration,
// the population and run length, the fault plan, the engine and shard
// choice, telemetry cadence and seed. It maps one-to-one onto
// locman.NetworkConfig plus the (slots, shards) run arguments, and that
// mapping is the service's determinism contract: a Spec run through the
// job service yields a final report bit-identical to
// locman.SimulateNetworkSharded invoked directly with the same values.
//
// Zero values follow the pcnsim CLI defaults where those defaults are
// themselves zero-like; the two deliberate exceptions are Threshold
// (nil means network-optimized, pcnsim's -d -1) and Shards (0 means
// GOMAXPROCS, like -shards).
type Spec struct {
	// Model is the mobility model: "1d" or "2d" ("" means "2d").
	Model string `json:"model,omitempty"`
	// MoveProb (q) and CallProb (c) are the per-slot movement and
	// call-arrival probabilities.
	MoveProb float64 `json:"move_prob"`
	CallProb float64 `json:"call_prob"`
	// UpdateCost (U) and PollCost (V) are the signalling unit costs.
	UpdateCost float64 `json:"update_cost"`
	PollCost   float64 `json:"poll_cost"`
	// MaxDelay (m) is the paging delay bound in polling cycles; 0 means
	// unbounded.
	MaxDelay int `json:"max_delay,omitempty"`
	// Partition names the paging partitioner ("" means "sdf"); valid
	// names are locman.PartitionNames.
	Partition string `json:"partition,omitempty"`
	// Scheme names the location-update trigger ("" means "distance");
	// valid names are locman.UpdateSchemeNames. SchemeParam carries the
	// scheme's parameter — the timer period or movement count in slots —
	// and must be zero for the distance scheme, whose radius is Threshold.
	Scheme      string `json:"scheme,omitempty"`
	SchemeParam int64  `json:"scheme_param,omitempty"`
	// Scenario names a registered modelling scenario
	// (locman.ScenarioNames); it fixes the analytical model — grid,
	// probabilities, costs, delay bound, scheme, fleet, faults — while
	// the Spec keeps the run shape (terminals, slots, seed, shards,
	// engine, telemetry, threshold override). Setting any model field the
	// scenario already fixes is rejected rather than silently overridden.
	Scenario string `json:"scenario,omitempty"`
	// Fleet, when non-nil, declares a heterogeneous population by
	// behavioural group; see locman.Fleet for the interleaving and
	// jitter semantics.
	Fleet *FleetSpec `json:"fleet,omitempty"`
	// Terminals is the population size and Slots the run length.
	Terminals int   `json:"terminals"`
	Slots     int64 `json:"slots"`
	// Shards is the parallel shard count; 0 selects GOMAXPROCS. Results
	// are bit-identical for every value.
	Shards int `json:"shards,omitempty"`
	// Threshold is the static update threshold; nil means
	// network-optimized once from the analytical parameters.
	Threshold *int `json:"threshold,omitempty"`
	// Dynamic enables per-terminal online estimation with periodic
	// re-optimization every ReoptimizeEvery slots (0 means the engine
	// default).
	Dynamic         bool  `json:"dynamic,omitempty"`
	ReoptimizeEvery int64 `json:"reoptimize_every,omitempty"`
	// Faults optionally injects signalling-plane failures and configures
	// the recovery machinery; nil is a perfect signalling plane.
	Faults *FaultSpec `json:"faults,omitempty"`
	// SnapshotEvery switches on telemetry snapshot frames every N slots;
	// 0 disables the series.
	SnapshotEvery int64 `json:"snapshot_every,omitempty"`
	// Seed seeds the deterministic simulation.
	Seed uint64 `json:"seed"`
	// Engine selects the simulation engine ("" means "cols"); valid
	// names are locman.EngineNames, plus the legacy alias "fast", which
	// resolves to "cols".
	Engine string `json:"engine,omitempty"`
	// TimeoutSec is the per-job wall-clock deadline in seconds; 0 means
	// no deadline. A job exceeding it fails with a deadline error.
	TimeoutSec float64 `json:"timeout_sec,omitempty"`
}

// FleetSpec is the JSON view of locman.Fleet: a heterogeneous terminal
// population declared by behavioural group. Terminal i belongs to group
// i mod len(Groups); see locman.Fleet for the jitter semantics.
type FleetSpec struct {
	Groups []FleetGroupSpec `json:"groups"`
}

// FleetGroupSpec is one behavioural class: base movement and call
// probabilities plus optional relative jitter in [0, 1] that spreads
// each member's parameters uniformly over [base·(1−j), base·(1+j)].
type FleetGroupSpec struct {
	MoveProb float64 `json:"move_prob"`
	CallProb float64 `json:"call_prob"`
	QJitter  float64 `json:"q_jitter,omitempty"`
	CJitter  float64 `json:"c_jitter,omitempty"`
}

// fleet maps the JSON fleet section onto the engine's Fleet.
func (f *FleetSpec) fleet() *locman.Fleet {
	if f == nil {
		return nil
	}
	fl := &locman.Fleet{Groups: make([]locman.FleetGroup, len(f.Groups))}
	for i, g := range f.Groups {
		fl.Groups[i] = locman.FleetGroup{
			MoveProb: g.MoveProb,
			CallProb: g.CallProb,
			QJitter:  g.QJitter,
			CJitter:  g.CJitter,
		}
	}
	return fl
}

// HeteroFleet is pcnsim's -hetero population in Spec form: eleven groups
// ramping the movement probability from 0.5x to 1.5x of the base (see
// locman.HeteroFleet). A job submitted with this fleet is bit-identical
// to `pcnsim -hetero` at the same parameters — the CLI↔service parity
// the Spec previously could not express.
func HeteroFleet(moveProb, callProb float64) *FleetSpec {
	src := locman.HeteroFleet(moveProb, callProb)
	fs := &FleetSpec{Groups: make([]FleetGroupSpec, len(src.Groups))}
	for i, g := range src.Groups {
		fs.Groups[i] = FleetGroupSpec{
			MoveProb: g.MoveProb,
			CallProb: g.CallProb,
			QJitter:  g.QJitter,
			CJitter:  g.CJitter,
		}
	}
	return fs
}

// FaultSpec is the JSON view of locman.FaultPlan; see that type for the
// field semantics. AckTimeout and PageRetries take locman.ExplicitZero
// (-1 in JSON) for a literal zero, since their zero value means "use the
// default".
type FaultSpec struct {
	UpdateLoss    float64      `json:"update_loss,omitempty"`
	PollLoss      float64      `json:"poll_loss,omitempty"`
	ReplyLoss     float64      `json:"reply_loss,omitempty"`
	UpdateRetries int          `json:"update_retries,omitempty"`
	AckTimeout    int64        `json:"ack_timeout,omitempty"`
	PageRetries   int          `json:"page_retries,omitempty"`
	Outages       []OutageSpec `json:"outages,omitempty"`
}

// OutageSpec is one scheduled HLR outage window in slots [Start, End).
type OutageSpec struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// plan maps the JSON fault section onto the engine's FaultPlan.
func (f *FaultSpec) plan() locman.FaultPlan {
	if f == nil {
		return locman.FaultPlan{}
	}
	p := locman.FaultPlan{
		UpdateLoss:    f.UpdateLoss,
		PollLoss:      f.PollLoss,
		ReplyLoss:     f.ReplyLoss,
		UpdateRetries: f.UpdateRetries,
		AckTimeout:    f.AckTimeout,
		PageRetries:   f.PageRetries,
	}
	for _, w := range f.Outages {
		p.Outages = append(p.Outages, locman.Outage{Start: w.Start, End: w.End})
	}
	return p
}

// model resolves the Spec's model name.
func (s *Spec) model() (locman.Model, error) {
	switch s.Model {
	case "1d":
		return locman.OneDimensional, nil
	case "2d", "":
		return locman.TwoDimensional, nil
	default:
		return 0, fmt.Errorf("jobs: unknown model %q (valid models: 1d, 2d)", s.Model)
	}
}

// scenarioConflicts lists the Spec fields that are set but fixed by the
// named scenario — the model half of the descriptor. The run-shape
// fields (terminals, slots, seed, shards, engine, snapshot_every,
// threshold, timeout_sec) never conflict; they are the caller's half.
func (s *Spec) scenarioConflicts() []string {
	var fields []string
	add := func(set bool, name string) {
		if set {
			fields = append(fields, name)
		}
	}
	add(s.Model != "", "model")
	add(s.MoveProb != 0, "move_prob")
	add(s.CallProb != 0, "call_prob")
	add(s.UpdateCost != 0, "update_cost")
	add(s.PollCost != 0, "poll_cost")
	add(s.MaxDelay != 0, "max_delay")
	add(s.Partition != "", "partition")
	add(s.Scheme != "", "scheme")
	add(s.SchemeParam != 0, "scheme_param")
	add(s.Fleet != nil, "fleet")
	add(s.Dynamic, "dynamic")
	add(s.ReoptimizeEvery != 0, "reoptimize_every")
	add(s.Faults != nil, "faults")
	return fields
}

// NetworkConfig maps the Spec onto the engine configuration it
// describes. The mapping is pure — no defaults beyond the documented
// zero-value meanings — so equal Specs always produce equal configs.
// A scenario Spec loads the registered model and rejects any model
// field set alongside it rather than silently overriding.
func (s *Spec) NetworkConfig() (locman.NetworkConfig, error) {
	var cfg locman.NetworkConfig
	if s.Scenario != "" {
		if conflicts := s.scenarioConflicts(); len(conflicts) > 0 {
			return locman.NetworkConfig{}, fmt.Errorf(
				"jobs: scenario %q fixes the model; drop the conflicting field(s): %s",
				s.Scenario, strings.Join(conflicts, ", "))
		}
		sc, err := locman.ScenarioByName(s.Scenario)
		if err != nil {
			return locman.NetworkConfig{}, fmt.Errorf("jobs: %w", err)
		}
		cfg = sc.Network()
	} else {
		mdl, err := s.model()
		if err != nil {
			return locman.NetworkConfig{}, err
		}
		cfg = locman.NetworkConfig{
			Config: locman.Config{
				Model:      mdl,
				MoveProb:   s.MoveProb,
				CallProb:   s.CallProb,
				UpdateCost: s.UpdateCost,
				PollCost:   s.PollCost,
				MaxDelay:   s.MaxDelay,
			},
			Threshold:       -1,
			Dynamic:         s.Dynamic,
			ReoptimizeEvery: s.ReoptimizeEvery,
			Fleet:           s.Fleet.fleet(),
			Faults:          s.Faults.plan(),
		}
		if s.Scheme != "" || s.SchemeParam != 0 {
			sch, err := locman.UpdateSchemeByName(s.Scheme, s.SchemeParam)
			if err != nil {
				return locman.NetworkConfig{}, fmt.Errorf("jobs: %w", err)
			}
			cfg.Scheme = sch
		}
		if s.Partition != "" {
			p, err := locman.PartitionByName(s.Partition)
			if err != nil {
				return locman.NetworkConfig{}, fmt.Errorf("jobs: %w", err)
			}
			cfg.Partition = p
		}
	}
	cfg.Terminals = s.Terminals
	cfg.SnapshotEvery = s.SnapshotEvery
	cfg.Seed = s.Seed
	if s.Threshold != nil {
		cfg.Threshold = *s.Threshold
	}
	if s.Engine != "" {
		e, err := locman.EngineByName(s.Engine)
		if err != nil {
			return locman.NetworkConfig{}, fmt.Errorf("jobs: %w", err)
		}
		cfg.Engine = e
	}
	return cfg, nil
}

// ResolvedShards is the shard count the run will actually use: the
// GOMAXPROCS default for 0, clamped to the population like the engine
// clamps it.
func (s *Spec) ResolvedShards() int {
	n := s.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > s.Terminals && s.Terminals > 0 {
		n = s.Terminals
	}
	return n
}

// Validate rejects unusable specs with errors phrased for API clients.
// It covers both the service-level constraints (positive run shape,
// sane timeout) and the engine's own config check
// (locman.NetworkConfig.Validate), so a Spec that
// validates here is guaranteed to start simulating when its turn comes.
func (s *Spec) Validate() error {
	var problems []string
	if s.Terminals <= 0 {
		problems = append(problems, fmt.Sprintf("terminals must be positive, got %d", s.Terminals))
	}
	if s.Slots <= 0 {
		problems = append(problems, fmt.Sprintf("slots must be positive, got %d", s.Slots))
	}
	if s.Shards < 0 {
		problems = append(problems, fmt.Sprintf("shards must not be negative, got %d", s.Shards))
	}
	if s.TimeoutSec < 0 {
		problems = append(problems, fmt.Sprintf("timeout_sec must not be negative, got %v", s.TimeoutSec))
	}
	if len(problems) > 0 {
		return fmt.Errorf("jobs: invalid spec: %s", strings.Join(problems, "; "))
	}
	cfg, err := s.NetworkConfig()
	if err != nil {
		return err
	}
	if err := cfg.Validate(); err != nil {
		return fmt.Errorf("jobs: invalid spec: %w", err)
	}
	return nil
}
