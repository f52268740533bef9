package jobs

import (
	"flag"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"

	"repro/locman"
)

// SpecFlags registers on fs the flags that describe one run — the
// surface pcnsim and pcnctl submit share — and returns a function that,
// after fs.Parse, yields the Spec those flags describe. The defaults are
// the paper's operating point and the historical pcnsim run shape, so
// the same argv describes the same Spec in both commands.
//
// A -scenario fixes the model half of the Spec: a model flag set
// alongside it is a contradiction, reported in flag spelling, and the
// model flags' defaults are left out of the Spec. The run-shape flags
// (-terminals, -slots, -seed, -shards, -engine, -telemetry-every, -d)
// always apply.
func SpecFlags(fs *flag.FlagSet) func() (Spec, error) {
	var (
		s          Spec
		f          FaultSpec
		d          int
		hetero     bool
		outages    string
		modelFlags []string // the flags a scenario fixes, in registration order
	)
	model := func(name string) string {
		modelFlags = append(modelFlags, name)
		return name
	}
	fs.StringVar(&s.Model, model("model"), "2d", "mobility model: 1d or 2d")
	fs.Float64Var(&s.MoveProb, model("q"), 0.05, "per-slot movement probability")
	fs.Float64Var(&s.CallProb, model("c"), 0.01, "per-slot call-arrival probability")
	fs.Float64Var(&s.UpdateCost, model("U"), 100, "location-update cost")
	fs.Float64Var(&s.PollCost, model("V"), 10, "per-cell polling cost")
	fs.IntVar(&s.MaxDelay, model("m"), 3, "maximum paging delay in polling cycles (0 = unbounded)")
	fs.StringVar(&s.Partition, model("partition"), "",
		"paging partitioner: "+strings.Join(locman.PartitionNames(), ", ")+" (default sdf)")
	fs.BoolVar(&s.Dynamic, model("dynamic"), false, "per-terminal online estimation and re-optimization")
	fs.Int64Var(&s.ReoptimizeEvery, model("reoptimize-every"), 0,
		"dynamic re-optimization period in slots (0 = engine default)")
	fs.BoolVar(&hetero, model("hetero"), false, "heterogeneous population (per-terminal q varies ±50%)")
	fs.StringVar(&s.Scheme, model("scheme"), "",
		"location-update scheme: "+strings.Join(locman.UpdateSchemeNames(), ", ")+" (default distance)")
	fs.Int64Var(&s.SchemeParam, model("scheme-param"), 0,
		"update-scheme parameter: timer period or movement count in slots (distance takes none; its threshold is -d)")
	fs.Float64Var(&f.UpdateLoss, model("loss"), 0, "update-message loss probability (failure injection)")
	fs.Float64Var(&f.PollLoss, model("poll-loss"), 0, "downlink paging-poll loss probability")
	fs.Float64Var(&f.ReplyLoss, model("reply-loss"), 0, "uplink paging-reply loss probability")
	fs.IntVar(&f.UpdateRetries, model("update-retries"), 0,
		"acked-update retransmission budget (0 = fire-and-forget updates)")
	fs.Int64Var(&f.AckTimeout, model("ack-timeout"), 0,
		"first retransmission timeout in scheduler ticks (0 = default, doubles per retry)")
	fs.IntVar(&f.PageRetries, model("page-retries"), 0,
		"recovery paging rounds before a call is dropped (0 = default)")
	fs.StringVar(&outages, model("outage"), "",
		"HLR outage windows in slots, e.g. 1000:2000 or 1000:2000,5000:5500")

	fs.StringVar(&s.Scenario, "scenario", "",
		"run a registered scenario: "+strings.Join(locman.ScenarioNames(), ", ")+
			" (fixes the model; run-shape flags still apply)")
	fs.IntVar(&s.Terminals, "terminals", 20, "number of mobile terminals")
	fs.Int64Var(&s.Slots, "slots", 200_000, "time slots to simulate")
	fs.IntVar(&d, "d", -1, "static threshold (-1 = network-optimized)")
	fs.Uint64Var(&s.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&s.Shards, "shards", runtime.GOMAXPROCS(0),
		"parallel simulation shards (results are identical for any shard count)")
	fs.Int64Var(&s.SnapshotEvery, "telemetry-every", 0,
		"capture a telemetry snapshot frame every N slots (0 = off)")
	fs.StringVar(&s.Engine, "engine", "cols",
		"simulation engine: "+strings.Join(locman.EngineNames(), " or ")+
			" (batch vs reference event-driven); results are bit-identical")

	return func() (Spec, error) {
		spec := s
		if s.Scenario != "" {
			set := map[string]bool{}
			fs.Visit(func(fl *flag.Flag) { set[fl.Name] = true })
			var conflicts []string
			for _, name := range modelFlags {
				if set[name] {
					conflicts = append(conflicts, "-"+name)
				}
			}
			if len(conflicts) > 0 {
				return Spec{}, fmt.Errorf("-scenario %s fixes the model; drop the conflicting flag(s): %s",
					s.Scenario, strings.Join(conflicts, ", "))
			}
			spec = Spec{Scenario: s.Scenario, Terminals: s.Terminals, Slots: s.Slots,
				Shards: s.Shards, SnapshotEvery: s.SnapshotEvery, Seed: s.Seed, Engine: s.Engine}
		} else {
			if hetero {
				spec.Fleet = HeteroFleet(s.MoveProb, s.CallProb)
			}
			faults := f
			if outages != "" {
				var err error
				if faults.Outages, err = ParseOutages(outages); err != nil {
					return Spec{}, err
				}
			}
			if !reflect.ValueOf(faults).IsZero() {
				spec.Faults = &faults
			}
		}
		if d >= 0 {
			threshold := d
			spec.Threshold = &threshold
		}
		return spec, nil
	}
}

// ParseOutages parses the -outage syntax: comma-separated start:end slot
// windows. Windows must be well-formed up front — non-negative start,
// end strictly after start — matching the fault-plan validation, so a
// bad flag fails before any simulation or submission.
func ParseOutages(s string) ([]OutageSpec, error) {
	var out []OutageSpec
	for _, w := range strings.Split(s, ",") {
		start, end, ok := strings.Cut(w, ":")
		if !ok {
			return nil, fmt.Errorf("outage window %q is not start:end", w)
		}
		a, err := strconv.ParseInt(strings.TrimSpace(start), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("outage window %q: %v", w, err)
		}
		b, err := strconv.ParseInt(strings.TrimSpace(end), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("outage window %q: %v", w, err)
		}
		if a < 0 {
			return nil, fmt.Errorf("outage window %q starts at a negative slot", w)
		}
		if b <= a {
			return nil, fmt.Errorf("outage window %q is inverted or empty", w)
		}
		out = append(out, OutageSpec{Start: a, End: b})
	}
	return out, nil
}
