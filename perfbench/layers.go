package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/stats"
	"repro/locman"
)

// This file holds the benchmark's calls into single layers: the engine
// path split into its steps, and the probes that time one layer's public
// function directly on the workload's own inputs.

// encodeReport is what pcnsim -json and the job service do with a run's
// metrics: build the report and indent it two spaces.
func encodeReport(m *locman.NetworkMetrics) ([]byte, *locman.Report, error) {
	report := locman.NewReport(m)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), report, nil
}

// simulateEncode is the reference path: locman.SimulateNetworkSharded
// followed by the report encode, exactly as pcnsim -json runs it.
func simulateEncode(spec jobs.Spec) ([]byte, *locman.Report, error) {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, nil, err
	}
	m, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		return nil, nil, err
	}
	return encodeReport(m)
}

// engineSplit accumulates the traced engine path's per-step numbers.
type engineSplit struct {
	shardRun  [][]float64 // per repetition, per shard: slice seconds
	setup     [][]float64 // per repetition, per shard: 1-slot slice seconds
	allocs    []float64
	allocB    []float64
	events    float64
	terminals []int // per shard
	slots     int64
}

// slicedRun is the engine path split into its layers: one
// locman.SimulateNetworkSlice per shard, run concurrently as
// SimulateNetworkSharded runs them, then locman.MergeNetworkPartials and
// the report encode, each under its own span. Its bytes must equal the
// reference path's. The allocation counts are read only when tracing, as
// ReadMemStats stops the world.
func (b *bench) slicedRun(spec jobs.Spec, es *engineSplit) ([]byte, error) {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, err
	}
	var before, after runtime.MemStats
	if b.tr != nil {
		runtime.ReadMemStats(&before)
	}
	secs, parts, err := b.slices(cfg, spec.Slots, spec.Shards, "sim.slice")
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		runtime.ReadMemStats(&after)
		es.allocs = append(es.allocs, float64(after.Mallocs-before.Mallocs))
		es.allocB = append(es.allocB, float64(after.TotalAlloc-before.TotalAlloc))
	}
	es.shardRun = append(es.shardRun, secs)
	es.terminals = es.terminals[:0]
	for _, p := range parts {
		for _, sp := range p.Shard {
			es.terminals = append(es.terminals, sp.Hi-sp.Lo)
		}
	}
	es.slots = spec.Slots

	sp := b.tr.start("sim.merge", "")
	m, err := locman.MergeNetworkPartials(cfg, spec.Slots, spec.Shards, parts)
	sp.stop()
	if err != nil {
		return nil, err
	}
	sp = b.tr.start("locman.report_encode", "")
	raw, report, err := encodeReport(m)
	sp.stop()
	if err != nil {
		return nil, err
	}
	es.events = float64(report.Events) / (float64(spec.Terminals) * float64(spec.Slots))
	return raw, nil
}

// slices runs every shard of a shards-way partition as its own
// SimulateNetworkSlice, concurrently, and returns each one's seconds.
func (b *bench) slices(cfg locman.NetworkConfig, slots int64, shards int, name string) ([]float64, []*locman.Partial, error) {
	secs := make([]float64, shards)
	parts := make([]*locman.Partial, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sp := b.tr.start(name, strconv.Itoa(s))
			parts[s], errs[s] = locman.SimulateNetworkSlice(context.Background(), cfg, slots, shards, s, s+1)
			secs[s] = seconds(sp.stop())
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return secs, parts, nil
}

// engineSetup times set-up alone: a 1-slot slice per shard range.
func (b *bench) engineSetup(spec jobs.Spec, es *engineSplit) error {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return err
	}
	for i := 0; i < b.opt.Size.SetupReps; i++ {
		runtime.GC()
		secs, _, err := b.slices(cfg, 1, spec.Shards, "sim.setup")
		if err != nil {
			return err
		}
		es.setup = append(es.setup, secs)
	}
	return nil
}

// report sets the sim.* metrics from the split. The slot-loop cost is a
// shard's slice time minus its median 1-slot time, over the terminal-
// slots beyond the first slot, pooled across shards.
func (es *engineSplit) report(b *bench) {
	shards := len(es.terminals)
	setupMed := make([]float64, shards)
	var setupWall []float64
	for s := 0; s < shards; s++ {
		var xs []float64
		for _, rep := range es.setup {
			xs = append(xs, rep[s])
		}
		setupMed[s] = median(xs)
	}
	for _, rep := range es.setup {
		setupWall = append(setupWall, maxOf(rep))
	}
	var slotNs, runMax, skew []float64
	for _, rep := range es.shardRun {
		var loop, ts float64
		for s, sec := range rep {
			loop += sec - setupMed[s]
			ts += float64(es.terminals[s]) * float64(es.slots-1)
		}
		slotNs = append(slotNs, loop/ts*1e9)
		runMax = append(runMax, maxOf(rep))
		skew = append(skew, maxOf(rep)/(sum(rep)/float64(len(rep))))
	}
	b.set("sim.setup_s", median(setupWall))
	b.set("sim.slot_ns_per_terminal_slot", median(slotNs))
	b.set("sim.shard_run_max_s", median(runMax))
	b.set("sim.shard_skew", median(skew))
	b.set("sim.events_per_terminal_slot", es.events)
	b.set("sim.allocs", median(es.allocs))
	b.set("sim.alloc_bytes", median(es.allocB))
	b.set("sim.merge_ms", median(b.tr.ms("sim.merge")))
	b.set("locman.report_encode_ms", median(b.tr.ms("locman.report_encode")))
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = max(m, x)
	}
	return m
}

// probeSink keeps the probed results alive, so the compiler cannot drop
// the calls being timed.
var probeSink uint64

// probeStats times the RNG layer on the paper's parameters:
// (*RNG).Uint64 per draw, and EventGap at the Bernoulli thresholds of
// c=0.01 (call, drawn first) and q=0.05 (move) per returned gap.
func (b *bench) probeStats() {
	var rngNs, gapNs []float64
	callT, moveT := stats.BernoulliThreshold(0.01), stats.BernoulliThreshold(0.05)
	for rep := 0; rep < 3; rep++ {
		r := stats.NewRNG(b.opt.Seed + uint64(rep))
		var sink uint64
		n := b.opt.Size.ProbeDraws
		sp := b.tr.start("stats.uint64", "")
		for i := 0; i < n; i++ {
			sink += r.Uint64()
		}
		rngNs = append(rngNs, float64(sp.stop())/float64(n))
		// Each gap draws about 1/(c+q) ≈ 17 slots' worth of numbers.
		calls := n / 32
		var gaps int64
		sp = b.tr.start("stats.event_gap", "")
		for i := 0; i < calls; i++ {
			g, _, _ := r.EventGap(callT, moveT, 1<<20)
			gaps += g
		}
		gapNs = append(gapNs, float64(sp.stop())/float64(calls))
		probeSink += sink + uint64(gaps)
	}
	b.set("stats.rng_ns_per_draw", median(rngNs))
	b.set("stats.event_gap_ns", median(gapNs))
}

// probeIngest times results.Store.Ingest into an Open'ed (persisted)
// store as the table grows row by row, then Store.Query on the full
// table, and reports the table file's size.
func (b *bench) probeIngest(rows []results.Row, req *results.Request) error {
	dir, err := os.MkdirTemp(b.opt.Dir, "ingest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "results.table.json")
	store, err := results.Open(path)
	if err != nil {
		return err
	}
	var ingest []float64
	for _, row := range rows {
		sp := b.tr.start("results.ingest", row.Job)
		err := store.Ingest(row)
		ingest = append(ingest, millis(sp.stop()))
		if err != nil {
			return fmt.Errorf("ingest %s: %w", row.Job, err)
		}
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var query []float64
	for i := 0; i < 50; i++ {
		sp := b.tr.start("results.query", "")
		_, err := store.Query(req)
		query = append(query, millis(sp.stop()))
		if err != nil {
			return err
		}
	}
	b.set("results.ingest_ms.p50", quantile(ingest, 0.5))
	b.set("results.ingest_ms.p90", quantile(ingest, 0.9))
	b.set("results.table_bytes", float64(fi.Size()))
	b.set("results.query_ms", median(query))
	return nil
}

// probeJournal times jobs.OpenJournal and then Journal.Append, fsync
// included, on a record mix: the records the service journals per job.
func (b *bench) probeJournal(recs []jobs.Record) error {
	dir, err := os.MkdirTemp(b.opt.Dir, "journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sp := b.tr.start("jobs.open_journal", "")
	j, _, err := jobs.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	sp.stop()
	if err != nil {
		return err
	}
	defer j.Close()
	var appends []float64
	for _, rec := range recs {
		sp := b.tr.start("jobs.journal_append", rec.Job)
		err := j.Append(rec)
		appends = append(appends, millis(sp.stop()))
		if err != nil {
			return fmt.Errorf("append %s %s: %w", rec.Kind, rec.Job, err)
		}
	}
	b.set("jobs.journal_append_ms.p50", quantile(appends, 0.5))
	b.set("jobs.journal_append_ms.p90", quantile(appends, 0.9))
	return nil
}
