package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

// runLong is long-faulty: one long lossy job on a single-node daemon with
// a data dir and a checkpoint cadence. One client submits it and follows
// its NDJSON stream; the other queries beside it. Each cycle boots a
// daemon on a fresh data dir, runs the job, checks its report, then
// restarts the daemon on the same data dir. Cycles repeat until the run's
// time is up.
func runLong(b *bench) error {
	sz := b.opt.Size
	spec := longSpec(b.opt.Seed, sz)
	var want []byte
	var report *locman.Report
	var err error
	if b.tr == nil {
		want, report, err = b.reference(spec)
	} else {
		want, report, err = b.longLibrary(spec)
	}
	if err != nil {
		return err
	}

	var tot serviceTotals
	hc := newClient(nproc())
	defer hc.close()
	start := time.Now()
	for cycle := 1; cycle == 1 || time.Since(start) < b.opt.Seconds; cycle++ {
		if err := b.longCycle(cycle, spec, want, report, hc, &tot); err != nil {
			return err
		}
	}

	jobLat, queryLat := tot.samples.get("job"), tot.samples.get("query")
	b.set("setup_s", median(tot.setups))
	b.set("recover_s", median(tot.recovers))
	b.set("jobs_per_s", median(tot.samples.get("cycle.jobs_per_s")))
	b.set("terminal_slots_per_s", median(tot.samples.get("cycle.terminal_slots_per_s")))
	b.set("job_latency_p50_ms", quantile(jobLat, 0.5))
	b.set("job_latency_p90_ms", quantile(jobLat, 0.9))
	b.set("query_latency_p50_ms", quantile(queryLat, 0.5))
	b.set("query_latency_p90_ms", quantile(queryLat, 0.9))
	b.set("max_rss_mb", maxRSSMB())
	if b.tr != nil {
		b.setServiceLayers(&tot)
	}
	return nil
}

// longLibrary is the traced pass's library run, before the timed window:
// locman.SimulateNetworkCheckpointed at the daemon's cadence, with every
// checkpoint the sink receives encoded under a span, then the engine path
// split into slices, merge and encode. The split's bytes must equal the
// checkpointed run's, which are the reference for the daemon.
func (b *bench) longLibrary(spec jobs.Spec) ([]byte, *locman.Report, error) {
	b.probeStats()
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, nil, err
	}
	var mu sync.Mutex
	var cps []*locman.Checkpoint
	m, err := locman.SimulateNetworkCheckpointed(context.Background(), cfg, spec.Slots, spec.Shards,
		b.opt.Size.LongCheckpointEach, func(cp *locman.Checkpoint) {
			mu.Lock()
			cps = append(cps, cp)
			mu.Unlock()
		})
	if err != nil {
		return nil, nil, err
	}
	sp := b.tr.start("locman.report_encode", "")
	want, report, err := encodeReport(m)
	sp.stop()
	if err != nil {
		return nil, nil, err
	}
	var enc, size []float64
	for _, cp := range cps {
		sp := b.tr.start("sim.checkpoint_encode", "")
		data, err := locman.EncodeCheckpoint(cp)
		enc = append(enc, millis(sp.stop()))
		if err != nil {
			return nil, nil, err
		}
		size = append(size, float64(len(data)))
	}
	if len(cps) > 0 {
		b.set("sim.checkpoint_encode_ms", median(enc))
		b.set("sim.checkpoint_bytes", median(size))
	}

	var es engineSplit
	if err := b.engineSetup(spec, &es); err != nil {
		return nil, nil, err
	}
	for i := 0; i < 2; i++ {
		raw, err := b.slicedRun(spec, &es)
		if err == nil && !bytes.Equal(raw, want) {
			err = mismatch("sliced library report", raw, want)
		}
		b.check("library run", err)
	}
	es.report(b)
	return want, report, nil
}

// longCycle runs one boot–job–restart cycle.
func (b *bench) longCycle(cycle int, spec jobs.Spec, want []byte, report *locman.Report, hc *client, tot *serviceTotals) error {
	dir := filepath.Join(b.opt.Dir, "long-"+strconv.Itoa(cycle))
	defer os.RemoveAll(dir)
	cfg := daemonConfig{dataDir: dir, checkpointEvery: b.opt.Size.LongCheckpointEach}
	qbody, err := json.Marshal(sweepQuery())
	if err != nil {
		return err
	}

	runtime.GC() // no collection left over from the last phase lands in the timed boot
	t0 := time.Now()
	d, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	if err := hc.waitReady(d.url, nil); err != nil {
		d.close()
		return err
	}
	tot.setups = append(tot.setups, seconds(time.Since(t0)))

	loopStart := time.Now()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		pause := time.Duration(b.opt.Size.LongQueryPause) * time.Millisecond
		for {
			t := time.Now()
			_, err := hc.query(d.url, qbody)
			tot.samples.add("query", millis(time.Since(t)))
			b.check("query", err)
			select {
			case <-stop:
				return
			case <-time.After(pause):
			}
		}
	}()
	id := b.serviceJob(d, hc, spec, want, cycle, tot)
	close(stop)
	wg.Wait()
	loop := seconds(time.Since(loopStart))
	tot.jobs++
	tot.samples.add("cycle.jobs_per_s", 1/loop)
	tot.samples.add("cycle.terminal_slots_per_s", float64(spec.Terminals)*float64(spec.Slots)/loop)
	if b.tr != nil {
		st := d.mgr.Stats()
		tot.jbytes = append(tot.jbytes, float64(st.JournalBytes))
		tot.ckpts += st.CheckpointsWritten
	}
	d.close()

	var rows []results.Row
	if id != "" {
		row, err := jobs.ResultRow(id, spec, report)
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	wantQuery, err := referenceQuery(rows, sweepQuery())
	if err != nil {
		return err
	}

	// Restart on the same data dir: the journal replay must restore the
	// job and its analytics row.
	cfg.recoverSpan = func() timing { return b.tr.start("jobs.recover", strconv.Itoa(cycle)) }
	runtime.GC() // no collection left over from the last phase lands in the timed boot
	t1 := time.Now()
	d, err = startDaemon(cfg)
	if !b.check("restart", err) {
		return err
	}
	defer d.close()
	err = hc.waitReady(d.url, nil)
	if !b.check("restart", err) {
		return err
	}
	tot.recovers = append(tot.recovers, seconds(time.Since(t1)))
	got, err := hc.query(d.url, qbody)
	if err == nil && !bytes.Equal(got, wantQuery) {
		err = mismatch("query after restart", got, wantQuery)
	}
	b.check("query after restart", err)
	if b.tr != nil {
		tot.replayed = append(tot.replayed, float64(d.mgr.Stats().ReplayedRecords))
	}
	return nil
}
