// Command pcnsim runs the discrete-event PCN system simulator — terminals,
// HLR, binary signalling messages, polling cycles — and compares the
// measured per-slot costs with the paper's analytical prediction:
//
//	pcnsim -model 2d -q 0.05 -c 0.01 -U 100 -V 10 -m 3 -terminals 50 -slots 200000
//	pcnsim -dynamic -hetero   # per-terminal online estimation demo
//	pcnsim -terminals 100000 -slots 1000 -shards 8   # sharded parallel engine
//	pcnsim -scheme timer -scheme-param 500      # timer-based updates
//	pcnsim -scheme movement -scheme-param 6     # movement-based updates
//	pcnsim -scenario rush-hour-hotspot          # registered named scenario
//	pcnsim -scenarios                           # list the registry
//	pcnsim -loss 0.2 -poll-loss 0.1 -reply-loss 0.1 -update-retries 3 \
//	       -outage 50000:60000   # fault injection + recovery subsystem
//	pcnsim -telemetry-every 10000 -json   # machine-readable run report
//	pcnsim -pprof localhost:6060          # live progress + profiling
//
// A -scenario fixes the model half of the run (grid, probabilities,
// costs, delay bound, update scheme, fleet, faults) from the shared
// locman registry — the same names pcnctl and the job service resolve —
// while the run shape (-terminals, -slots, -seed, -shards, -engine,
// -telemetry-every, -d) stays with the flags; model flags set alongside
// it are rejected rather than silently overridden.
//
// The population is partitioned across -shards parallel simulation engines
// (default GOMAXPROCS); metrics are bit-identical for any shard count.
package main

import (
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/locman"
)

// percent formats part as a percentage of whole, tolerating a zero whole.
func percent(part, whole int64) string {
	if whole == 0 {
		return "0.00%"
	}
	return fmt.Sprintf("%.2f%%", 100*float64(part)/float64(whole))
}

// parseOutages parses the -outage flag: comma-separated start:end slot
// windows. Windows must be well-formed up front — non-negative start,
// end strictly after start — matching the FaultPlan validation so a bad
// flag fails before any simulation work starts.
func parseOutages(s string) ([]locman.Outage, error) {
	var out []locman.Outage
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
		out = append(out, locman.Outage{Start: a, End: b})
	}
	return out, nil
}

// printReport writes the human-readable run summary. Lost updates are
// reported against update transmission attempts (first sends and
// retransmissions alike — the same population the loss probability
// applies to), so the percentage is a direct estimate of the injected
// loss rate and can never exceed 100%.
func printReport(w io.Writer, r *locman.Report) {
	fmt.Fprintf(w, "terminals        %d\n", r.Terminals)
	fmt.Fprintf(w, "slots            %d (%d scheduler events)\n", r.Slots, r.Events)
	fmt.Fprintf(w, "updates          %d (%d bytes)\n", r.Updates, r.UpdateBytes)
	fmt.Fprintf(w, "calls            %d (replies: %d bytes)\n", r.Calls, r.ReplyBytes)
	fmt.Fprintf(w, "polled cells     %d (%d bytes)\n", r.PolledCells, r.PollBytes)
	fmt.Fprintf(w, "paging failures  %d\n", r.NotFound)
	fmt.Fprintf(w, "lost updates     %d (%s of %d attempts)\n", r.LostUpdates,
		percent(r.LostUpdates, r.Updates), r.Updates)
	fmt.Fprintf(w, "lost polls       %d   lost replies %d\n", r.LostPolls, r.LostReplies)
	fmt.Fprintf(w, "retransmissions  %d (acks: %d, %d bytes)\n",
		r.Retransmissions, r.Acks, r.AckBytes)
	fmt.Fprintf(w, "fallback pages   %d (%s of calls)   re-poll rounds %d\n",
		r.FallbackCalls, percent(r.FallbackCalls, r.Calls), r.RePolls)
	fmt.Fprintf(w, "dropped calls    %d (%s of calls)\n", r.DroppedCalls,
		percent(r.DroppedCalls, r.Calls))
	fmt.Fprintf(w, "outage deferred  %d registrations\n", r.OutageDeferred)
	if r.Recovery.N > 0 {
		fmt.Fprintf(w, "recovery latency %.2f slots mean, %.0f worst (%d episodes)\n",
			r.Recovery.Mean, r.Recovery.Max, r.Recovery.N)
	}
	if h := r.RecoveryHist; h != nil && h.N > 0 {
		fmt.Fprintf(w, "recovery tail    p50 %.0f  p95 %.0f  p99 %.0f slots\n", h.P50, h.P95, h.P99)
	}
	fmt.Fprintf(w, "mean delay       %.3f polling cycles (worst observed %.0f)\n",
		r.Delay.Mean, r.Delay.Max)
	if h := r.DelayHist; h != nil && h.N > 0 {
		fmt.Fprintf(w, "delay tail       p50 %.0f  p95 %.0f  p99 %.0f cycles\n", h.P50, h.P95, h.P99)
	}
	fmt.Fprintf(w, "update cost      %.6f per slot per terminal\n", r.UpdateCost)
	fmt.Fprintf(w, "paging cost      %.6f per slot per terminal\n", r.PagingCost)
	fmt.Fprintf(w, "total cost       %.6f per slot per terminal\n", r.TotalCost)

	// Threshold usage histogram; omitted entirely when nothing was
	// recorded rather than printing a bare label.
	if len(r.ThresholdSlots) > 0 {
		ds := make([]int, 0, len(r.ThresholdSlots))
		for d := range r.ThresholdSlots {
			ds = append(ds, d)
		}
		sort.Ints(ds)
		fmt.Fprintf(w, "threshold usage ")
		for _, d := range ds {
			fmt.Fprintf(w, "  d=%d: %.1f%%", d,
				100*float64(r.ThresholdSlots[d])/(float64(r.Slots)*float64(r.Terminals)))
		}
		fmt.Fprintln(w)
	}
}

// scenarioFlagConflicts lists (in flag spelling, with the dash) the
// model-half flags present in set — the flags a -scenario fixes and
// therefore refuses to combine with. Run-shape flags (-terminals,
// -slots, -seed, -shards, -engine, -telemetry-every, -d, -json,
// -pprof) never conflict.
func scenarioFlagConflicts(set map[string]bool) []string {
	var conflicts []string
	for _, name := range []string{
		"model", "q", "c", "U", "V", "m", "dynamic", "hetero",
		"scheme", "scheme-param", "loss", "poll-loss", "reply-loss",
		"update-retries", "ack-timeout", "page-retries", "outage",
	} {
		if set[name] {
			conflicts = append(conflicts, "-"+name)
		}
	}
	return conflicts
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnsim: ")

	model := flag.String("model", "2d", "mobility model: 1d or 2d")
	q := flag.Float64("q", 0.05, "per-slot movement probability")
	c := flag.Float64("c", 0.01, "per-slot call-arrival probability")
	u := flag.Float64("U", 100, "location-update cost")
	v := flag.Float64("V", 10, "per-cell polling cost")
	m := flag.Int("m", 3, "maximum paging delay in polling cycles (0 = unbounded)")
	terminals := flag.Int("terminals", 20, "number of mobile terminals")
	slots := flag.Int64("slots", 200_000, "time slots to simulate")
	threshold := flag.Int("d", -1, "static threshold (-1 = network-optimized)")
	dynamic := flag.Bool("dynamic", false, "per-terminal online estimation and re-optimization")
	hetero := flag.Bool("hetero", false, "heterogeneous population (per-terminal q varies ±50%)")
	loss := flag.Float64("loss", 0, "update-message loss probability (failure injection)")
	pollLoss := flag.Float64("poll-loss", 0, "downlink paging-poll loss probability")
	replyLoss := flag.Float64("reply-loss", 0, "uplink paging-reply loss probability")
	updateRetries := flag.Int("update-retries", 0,
		"acked-update retransmission budget (0 = fire-and-forget updates)")
	ackTimeout := flag.Int64("ack-timeout", 0,
		"first retransmission timeout in scheduler ticks (0 = default, doubles per retry)")
	pageRetries := flag.Int("page-retries", 0,
		"recovery paging rounds before a call is dropped (0 = default)")
	outages := flag.String("outage", "",
		"HLR outage windows in slots, e.g. 1000:2000 or 1000:2000,5000:5500")
	seed := flag.Uint64("seed", 1, "simulation seed")
	shards := flag.Int("shards", runtime.GOMAXPROCS(0),
		"parallel simulation shards (results are identical for any shard count)")
	jsonOut := flag.Bool("json", false,
		"emit the run report as a schema-stable JSON document instead of text")
	telemetryEvery := flag.Int64("telemetry-every", 0,
		"capture a telemetry snapshot frame every N slots (0 = off)")
	pprofAddr := flag.String("pprof", "",
		"serve net/http/pprof and expvar live shard progress on this address")
	engineName := flag.String("engine", "cols",
		"simulation engine: "+strings.Join(locman.EngineNames(), " or ")+
			" (columnar vs reference event-driven); results are bit-identical")
	schemeName := flag.String("scheme", "distance",
		"location-update scheme: "+strings.Join(locman.UpdateSchemeNames(), ", "))
	schemeParam := flag.Int64("scheme-param", 0,
		"update-scheme parameter: timer period or movement count in slots (distance takes none; its threshold is -d)")
	scenario := flag.String("scenario", "",
		"run a registered scenario: "+strings.Join(locman.ScenarioNames(), ", ")+
			" (fixes the model; run-shape flags still apply)")
	listScenarios := flag.Bool("scenarios", false,
		"list the registered scenarios and exit")
	flag.Parse()

	if *listScenarios {
		for _, sc := range locman.Scenarios() {
			fmt.Printf("%-18s %s\n", sc.Name, sc.Description)
		}
		return
	}

	engine, err := locman.EngineByName(*engineName)
	if err != nil {
		log.Fatalf("-engine: %v", err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var cfg locman.NetworkConfig
	if *scenario != "" {
		// The scenario fixes the model half of the run; a model flag set
		// alongside it is a contradiction, not an override.
		if conflicts := scenarioFlagConflicts(set); len(conflicts) > 0 {
			log.Fatalf("-scenario %s fixes the model; drop the conflicting flag(s): %s",
				*scenario, strings.Join(conflicts, ", "))
		}
		sc, err := locman.ScenarioByName(*scenario)
		if err != nil {
			log.Fatalf("-scenario: %v", err)
		}
		cfg = sc.Network()
		cfg.Terminals = *terminals
		cfg.SnapshotEvery = *telemetryEvery
		cfg.Seed = *seed
		cfg.Engine = engine
		if set["d"] {
			cfg.Threshold = *threshold
		}
	} else {
		var mdl locman.Model
		switch *model {
		case "1d":
			mdl = locman.OneDimensional
		case "2d":
			mdl = locman.TwoDimensional
		default:
			log.Fatalf("unknown model %q (want 1d or 2d)", *model)
		}
		scheme, err := locman.UpdateSchemeByName(*schemeName, *schemeParam)
		if err != nil {
			log.Fatalf("-scheme: %v", err)
		}
		cfg = locman.NetworkConfig{
			Config: locman.Config{
				Model:      mdl,
				MoveProb:   *q,
				CallProb:   *c,
				UpdateCost: *u,
				PollCost:   *v,
				MaxDelay:   *m,
			},
			Terminals: *terminals,
			Threshold: *threshold,
			Dynamic:   *dynamic,
			Scheme:    scheme,
			Faults: locman.FaultPlan{
				UpdateLoss:    *loss,
				PollLoss:      *pollLoss,
				ReplyLoss:     *replyLoss,
				UpdateRetries: *updateRetries,
				AckTimeout:    *ackTimeout,
				PageRetries:   *pageRetries,
			},
			SnapshotEvery: *telemetryEvery,
			Seed:          *seed,
			Engine:        engine,
		}
		if *outages != "" {
			windows, err := parseOutages(*outages)
			if err != nil {
				log.Fatal(err)
			}
			cfg.Faults.Outages = windows
		}
		if *hetero {
			// The historical ±50% movement-probability ramp, now expressed
			// through the same declarative fleet the jobs Spec carries.
			cfg.Fleet = locman.HeteroFleet(*q, *c)
		}
	}
	if *pprofAddr != "" {
		prog := &locman.Progress{}
		cfg.Progress = prog
		expvar.Publish("pcnsim.progress", expvar.Func(func() any {
			return prog.Snapshot()
		}))
		ln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("serving pprof and expvar on http://%s", ln.Addr())
		go func() {
			if err := http.Serve(ln, nil); err != nil {
				log.Print(err)
			}
		}()
	}

	metrics, err := locman.SimulateNetworkSharded(cfg, *slots, *shards)
	if err != nil {
		log.Fatal(err)
	}
	report := locman.NewReport(metrics)

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
		return
	}

	printReport(os.Stdout, report)

	// Analytical comparison for the homogeneous static distance case; the
	// paper's cost model prices neither heterogeneous populations nor the
	// timer/movement triggers, and scenarios may carry any of those.
	if !*dynamic && !*hetero && *scenario == "" && *schemeName == "distance" {
		d := *threshold
		if d < 0 {
			res, err := locman.Optimize(cfg.Config)
			if err != nil {
				log.Fatal(err)
			}
			d = res.Best.Threshold
		}
		want, err := locman.Evaluate(cfg.Config, d)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nanalytical C_T(d=%d) = %.6f  (simulated %.6f, rel. diff %+.2f%%)\n",
			d, want.Total, metrics.TotalCost, 100*(metrics.TotalCost-want.Total)/want.Total)
		fmt.Printf("analytical E[delay]  = %.3f  (simulated %.3f)\n",
			want.ExpectedDelay, metrics.Delay.Mean())
	}
}
