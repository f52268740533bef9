package jobs

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/locman"
)

// validSpec is a minimal passing descriptor; tests mutate copies.
func validSpec() Spec {
	return Spec{
		MoveProb:   0.05,
		CallProb:   0.01,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   3,
		Terminals:  10,
		Slots:      1_000,
		Seed:       1,
	}
}

// TestSpecValidate is the table-driven gate over the whole descriptor
// surface: service-level run-shape constraints, every name registry
// (model, partition, engine, scheme, scenario), the scheme parameter
// rules, fleet validation, and the scenario conflict policy. Unknown
// names must enumerate the valid ones; conflicts must list the
// offending fields.
func TestSpecValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Spec)
		err    string // "" means the spec must validate
	}{
		{"baseline valid", func(s *Spec) {}, ""},
		{"zero terminals", func(s *Spec) { s.Terminals = 0 },
			"terminals must be positive"},
		{"negative slots", func(s *Spec) { s.Slots = -1 },
			"slots must be positive"},
		{"negative shards", func(s *Spec) { s.Shards = -2 },
			"shards must not be negative"},
		{"negative timeout", func(s *Spec) { s.TimeoutSec = -1 },
			"timeout_sec must not be negative"},
		{"unknown model", func(s *Spec) { s.Model = "3d" },
			`unknown model "3d" (valid models: 1d, 2d)`},
		{"unknown partition", func(s *Spec) { s.Partition = "spiral" },
			`paging: unknown scheme "spiral"`},
		{"unknown engine", func(s *Spec) { s.Engine = "warp" },
			`unknown engine "warp"`},
		{"unknown scheme", func(s *Spec) { s.Scheme = "psychic" },
			`unknown update scheme "psychic" (valid schemes: distance, timer, movement)`},
		{"distance with param", func(s *Spec) { s.SchemeParam = 7 },
			"distance scheme takes no parameter"},
		{"timer without param", func(s *Spec) { s.Scheme = "timer" },
			"timer scheme period 0 slots, want positive"},
		{"timer valid", func(s *Spec) { s.Scheme = "timer"; s.SchemeParam = 500 }, ""},
		{"movement valid", func(s *Spec) { s.Scheme = "movement"; s.SchemeParam = 6 }, ""},
		{"dynamic timer", func(s *Spec) {
			s.Dynamic = true
			s.Scheme = "timer"
			s.SchemeParam = 500
		}, "dynamic per-user mechanism requires the distance update scheme"},
		{"dynamic distance ok", func(s *Spec) { s.Dynamic = true; s.Scheme = "distance" }, ""},
		{"fleet valid", func(s *Spec) {
			s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{
				{MoveProb: 0.1, CallProb: 0.02, QJitter: 0.5},
				{MoveProb: 0.3, CallProb: 0.01},
			}}
		}, ""},
		{"hetero fleet valid", func(s *Spec) { s.Fleet = HeteroFleet(0.1, 0.02) }, ""},
		{"fleet empty", func(s *Spec) { s.Fleet = &FleetSpec{} },
			"fleet has no groups"},
		{"fleet bad jitter", func(s *Spec) {
			s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{
				{MoveProb: 0.1, CallProb: 0.02, QJitter: 2},
			}}
		}, "fleet group 0: move-probability jitter 2 outside [0, 1]"},
		{"fleet extreme escapes", func(s *Spec) {
			s.Fleet = &FleetSpec{Groups: []FleetGroupSpec{
				{MoveProb: 0.1, CallProb: 0.02},
				{MoveProb: 0.8, CallProb: 0.3, QJitter: 0.5},
			}}
		}, "fleet group 1:"},
		{"scenario valid", func(s *Spec) {
			*s = Spec{Scenario: "baseline", Terminals: 10, Slots: 1_000, Seed: 1}
		}, ""},
		{"scenario with run shape", func(s *Spec) {
			d := 4
			*s = Spec{Scenario: "flash-crowd", Terminals: 10, Slots: 1_000,
				Seed: 1, Shards: 3, Engine: "cols", Threshold: &d, SnapshotEvery: 200}
		}, ""},
		{"unknown scenario", func(s *Spec) {
			*s = Spec{Scenario: "rush-hour", Terminals: 10, Slots: 1_000}
		}, `unknown scenario "rush-hour" (valid scenarios: `},
		{"scenario conflicts listed", func(s *Spec) {
			s.Scenario = "baseline"
			s.Scheme = "timer"
			s.SchemeParam = 500
		}, `scenario "baseline" fixes the model; drop the conflicting field(s): move_prob, call_prob, update_cost, poll_cost, max_delay, scheme, scheme_param`},
		{"scenario vs fleet", func(s *Spec) {
			*s = Spec{Scenario: "mixed-fleet", Terminals: 10, Slots: 1_000,
				Fleet: HeteroFleet(0.1, 0.02)}
		}, "drop the conflicting field(s): fleet"},
		{"scenario vs faults", func(s *Spec) {
			*s = Spec{Scenario: "flash-crowd", Terminals: 10, Slots: 1_000,
				Faults: &FaultSpec{UpdateLoss: 0.1}}
		}, "drop the conflicting field(s): faults"},
		{"faults valid", func(s *Spec) {
			s.Faults = &FaultSpec{UpdateLoss: 0.1, PollLoss: 0.05, ReplyLoss: 0.05,
				UpdateRetries: 3, Outages: []OutageSpec{{Start: 100, End: 200}}}
		}, ""},
		// -1 is the ExplicitZero sentinel: a literal zero after defaults.
		{"faults explicit zero recovery", func(s *Spec) {
			s.Faults = &FaultSpec{AckTimeout: -1, PageRetries: -1}
		}, ""},
		{"faults update loss above one", func(s *Spec) { s.Faults = &FaultSpec{UpdateLoss: 1.5} },
			"update loss probability 1.5 outside [0,1)"},
		{"faults negative poll loss", func(s *Spec) { s.Faults = &FaultSpec{PollLoss: -0.1} },
			"poll loss probability -0.1 outside [0,1)"},
		{"faults certain reply loss", func(s *Spec) { s.Faults = &FaultSpec{ReplyLoss: 1} },
			"reply loss probability 1 outside [0,1)"},
		{"faults negative retries", func(s *Spec) { s.Faults = &FaultSpec{UpdateRetries: -1} },
			"negative update retry budget -1"},
		{"faults retry overflow", func(s *Spec) { s.Faults = &FaultSpec{UpdateRetries: 33} },
			"update retry budget 33 exceeds 32"},
		{"faults acked with zero timeout", func(s *Spec) {
			s.Faults = &FaultSpec{UpdateRetries: 2, AckTimeout: -1}
		}, "ack timeout 0 with update retries 2"},
		{"faults negative ack timeout", func(s *Spec) { s.Faults = &FaultSpec{AckTimeout: -5} },
			"ack timeout -5 ticks must not be negative"},
		{"faults negative page retries", func(s *Spec) { s.Faults = &FaultSpec{PageRetries: -3} },
			"negative paging retry budget -3"},
		// The paging tick budget 2·(MaxThreshold+2+PageRetries) < SlotTicks
		// is the engine's check, run at submit.
		{"faults page retries beyond the slot", func(s *Spec) { s.Faults = &FaultSpec{PageRetries: 1000} },
			"jobs: invalid spec: sim: MaxThreshold 50 with 1000 paging retries needs more polling ticks than a slot holds (2048)"},
		{"faults page retries filling the slot", func(s *Spec) { s.Faults = &FaultSpec{PageRetries: 971} }, ""},
		{"threshold beyond MaxThreshold", func(s *Spec) { d := 60; s.Threshold = &d },
			"jobs: invalid spec: sim: threshold 60 exceeds MaxThreshold 50"},
		{"faults inverted outage", func(s *Spec) {
			s.Faults = &FaultSpec{Outages: []OutageSpec{{Start: 10, End: 20}, {Start: 500, End: 400}}}
		}, "outage window 1 is inverted or empty: [500, 400)"},
		{"faults outage before slot zero", func(s *Spec) {
			s.Faults = &FaultSpec{Outages: []OutageSpec{{Start: -1, End: 5}}}
		}, "outage window 0 starts at negative slot -1"},
		{"scenario vs dynamic", func(s *Spec) {
			*s = Spec{Scenario: "baseline", Terminals: 10, Slots: 1_000, Dynamic: true}
		}, "drop the conflicting field(s): dynamic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := validSpec()
			tc.mutate(&s)
			err := s.Validate()
			if tc.err == "" {
				if err != nil {
					t.Fatalf("valid spec rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("err = %v, want containing %q", err, tc.err)
			}
		})
	}
}

// TestSpecScenarioMapping checks a scenario Spec resolves to the
// registry's model with the Spec's run shape layered on — including the
// threshold override, which stays caller-side in every scheme.
func TestSpecScenarioMapping(t *testing.T) {
	d := 2
	s := Spec{
		Scenario:      "flash-crowd",
		Terminals:     25,
		Slots:         5_000,
		Seed:          9,
		Engine:        "cols",
		Threshold:     &d,
		SnapshotEvery: 300,
	}
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := locman.ScenarioByName("flash-crowd")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Config != sc.Config {
		t.Errorf("model %+v, want the registry's %+v", cfg.Config, sc.Config)
	}
	if cfg.Scheme == nil || cfg.Scheme.Name() != "timer" {
		t.Errorf("scheme %v, want the scenario's timer", cfg.Scheme)
	}
	if len(cfg.Faults.Outages) != 1 || cfg.Faults.UpdateLoss == 0 {
		t.Errorf("fault plan %+v not carried over", cfg.Faults)
	}
	if cfg.Terminals != 25 || cfg.Seed != 9 || cfg.SnapshotEvery != 300 {
		t.Errorf("run shape not applied: %+v", cfg)
	}
	if cfg.Threshold != 2 {
		t.Errorf("threshold override %d, want 2", cfg.Threshold)
	}
	if cfg.Engine != locman.EngineCols {
		t.Errorf("engine %v, want cols", cfg.Engine)
	}
}

// TestSpecHeteroFleetParity holds the Spec's fleet path to the parity
// contract: a Spec carrying jobs.HeteroFleet must produce the same
// network configuration semantics as pcnsim -hetero — same groups, same
// interleaving — by matching locman.HeteroFleet exactly.
func TestSpecHeteroFleetParity(t *testing.T) {
	s := validSpec()
	s.MoveProb, s.CallProb = 0.1, 0.02
	s.Fleet = HeteroFleet(0.1, 0.02)
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	want := locman.HeteroFleet(0.1, 0.02)
	if len(cfg.Fleet.Groups) != len(want.Groups) {
		t.Fatalf("%d groups, want %d", len(cfg.Fleet.Groups), len(want.Groups))
	}
	for i := range want.Groups {
		if cfg.Fleet.Groups[i] != want.Groups[i] {
			t.Errorf("group %d = %+v, want %+v", i, cfg.Fleet.Groups[i], want.Groups[i])
		}
	}
}

// TestSpecSchemaCompat pins the schema bump: current documents are v2,
// and a v1 document — one written before the scheme/scenario/fleet
// fields existed — still decodes and validates unchanged, because every
// new field defaults to the historical behaviour.
func TestSpecSchemaCompat(t *testing.T) {
	if SpecSchema != 2 || SpecSchemaV1 != 1 {
		t.Fatalf("schema constants %d/%d, want 2/1", SpecSchema, SpecSchemaV1)
	}
	v1doc := `{
		"model": "2d",
		"move_prob": 0.05, "call_prob": 0.01,
		"update_cost": 100, "poll_cost": 10, "max_delay": 3,
		"terminals": 50, "slots": 100000, "shards": 4, "seed": 7,
		"faults": {"update_loss": 0.1, "update_retries": 2},
		"snapshot_every": 10000
	}`
	dec := json.NewDecoder(strings.NewReader(v1doc))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		t.Fatalf("v1 document no longer decodes: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("v1 document no longer validates: %v", err)
	}
	cfg, err := s.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scheme != nil || cfg.Fleet != nil {
		t.Error("v1 document grew a scheme or fleet out of thin air")
	}
}

// TestSpecLegacyEngineAlias keeps stored specs that name the retired
// "fast" engine loading: such a document decodes, validates, maps to the
// columnar engine, and yields the same report bytes as a spec that
// leaves the engine unset.
func TestSpecLegacyEngineAlias(t *testing.T) {
	var legacy Spec
	dec := json.NewDecoder(strings.NewReader(`{
		"move_prob": 0.05, "call_prob": 0.01,
		"update_cost": 100, "poll_cost": 10, "max_delay": 3,
		"terminals": 10, "slots": 1000, "shards": 2, "seed": 1,
		"engine": "fast"
	}`))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&legacy); err != nil {
		t.Fatal(err)
	}
	if err := legacy.Validate(); err != nil {
		t.Fatalf("engine \"fast\" no longer validates: %v", err)
	}
	cfg, err := legacy.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Engine != locman.EngineCols {
		t.Errorf("engine \"fast\" resolved to %v, want cols", cfg.Engine)
	}
	unset := legacy
	unset.Engine = ""
	got, err := json.Marshal(runReport(t, legacy))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(runReport(t, unset))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("engine \"fast\" report differs from the default engine's:\n%s\nwant:\n%s", got, want)
	}
}

// FuzzSpecValidate hardens the descriptor boundary: arbitrary JSON that
// decodes into a Spec must never panic Validate or NetworkConfig, and
// Validate's verdict must agree with NetworkConfig (a spec that
// validates always maps to a config, and that config re-validates).
func FuzzSpecValidate(f *testing.F) {
	seeds := []string{
		`{}`,
		`{"move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":10,"slots":1000,"seed":1}`,
		`{"scenario":"baseline","terminals":10,"slots":1000}`,
		`{"scenario":"flash-crowd","terminals":10,"slots":1000,"threshold":4,"engine":"cols"}`,
		`{"scenario":"baseline","move_prob":0.5,"terminals":10,"slots":1000}`,
		`{"scheme":"timer","scheme_param":500,"move_prob":0.1,"call_prob":0.02,"update_cost":50,"poll_cost":1,"max_delay":2,"terminals":5,"slots":100,"seed":3}`,
		`{"scheme":"movement","scheme_param":-1,"terminals":5,"slots":100}`,
		`{"scheme":"nonsense","terminals":5,"slots":100}`,
		`{"fleet":{"groups":[{"move_prob":0.1,"call_prob":0.02,"q_jitter":0.5}]},"move_prob":0.1,"call_prob":0.02,"update_cost":100,"poll_cost":10,"terminals":5,"slots":100}`,
		`{"fleet":{"groups":[]},"terminals":5,"slots":100}`,
		`{"fleet":{"groups":[{"move_prob":0.9,"call_prob":0.4,"q_jitter":2}]},"terminals":5,"slots":100}`,
		`{"dynamic":true,"scheme":"timer","scheme_param":9,"terminals":5,"slots":100}`,
		`{"move_prob":1e308,"call_prob":1e308,"terminals":1,"slots":1}`,
		`{"move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":10,"slots":1000,"faults":{"update_loss":0.1,"poll_loss":0.05,"reply_loss":0.05,"update_retries":3,"ack_timeout":8,"page_retries":2,"outages":[{"start":100,"end":200}]}}`,
		`{"move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":10,"slots":1000,"faults":{"update_loss":1.5}}`,
		`{"move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":10,"slots":1000,"faults":{"update_retries":2,"ack_timeout":-1,"page_retries":-1}}`,
		`{"move_prob":0.05,"call_prob":0.01,"update_cost":100,"poll_cost":10,"max_delay":3,"terminals":10,"slots":1000,"faults":{"outages":[{"start":500,"end":400}]}}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			t.Skip()
		}
		err := s.Validate() // must not panic
		if err != nil {
			return
		}
		cfg, cfgErr := s.NetworkConfig()
		if cfgErr != nil {
			t.Fatalf("spec validated but NetworkConfig failed: %v", cfgErr)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("spec validated but config re-validation failed: %v", err)
		}
		if err := cfg.Faults.Validate(); err != nil {
			t.Fatalf("spec validated but its fault plan is malformed: %v", err)
		}
	})
}

// TestSpecExplicitZeroPageRetries: locman.ExplicitZero in a FaultSpec
// switches the recovery rounds off, so calls the nominal plan misses are
// dropped at once, while the zero value keeps the default budget.
func TestSpecExplicitZeroPageRetries(t *testing.T) {
	run := func(pageRetries int) *locman.NetworkMetrics {
		t.Helper()
		s := validSpec()
		s.Slots = 5_000
		s.Faults = &FaultSpec{PollLoss: 0.3, PageRetries: pageRetries}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		cfg, err := s.NetworkConfig()
		if err != nil {
			t.Fatal(err)
		}
		m, err := locman.SimulateNetwork(cfg, s.Slots)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := run(locman.ExplicitZero); m.RePolls != 0 || m.DroppedCalls == 0 {
		t.Errorf("ExplicitZero page retries: %d re-polls, %d dropped calls; want 0 re-polls and some dropped",
			m.RePolls, m.DroppedCalls)
	}
	if m := run(0); m.RePolls == 0 {
		t.Error("default page retries ran no recovery rounds")
	}
}
