package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/locman"
)

// sweepRefs are the sweep's expected outputs, computed before the timed
// window: each job's report bytes, as locman.SimulateNetworkSharded plus
// the encode produce them.
type sweepRefs struct {
	specs   []jobs.Spec
	raw     [][]byte
	reports []*locman.Report
}

// reference runs the reference path for one spec; the traced pass times
// its report encode.
func (b *bench) reference(spec jobs.Spec) ([]byte, *locman.Report, error) {
	cfg, err := spec.NetworkConfig()
	if err != nil {
		return nil, nil, err
	}
	m, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		return nil, nil, err
	}
	sp := b.tr.start("locman.report_encode", "")
	defer sp.stop()
	return encodeReport(m)
}

// serviceTotals accumulates the measured cycles of a service workload's
// pass. samples holds every per-operation sample by name.
type serviceTotals struct {
	samples  samples
	setups   []float64
	recovers []float64
	jobs     int
	leases   int64 // slice dispatches
	releases int64
	jbytes   []float64 // journal bytes per job, per cycle
	ckpts    int64
	replayed []float64
}

// runSweep is sweep-cluster: a coordinator and two workers on loopback,
// with a fresh data dir per cycle. Each cycle boots the cluster, runs the
// whole sweep through a closed loop of clients, checks every report and
// the final query, then restarts the coordinator on the same data dir.
// Cycles repeat until the run's time is up.
func runSweep(b *bench) error {
	sz := b.opt.Size
	ref := sweepRefs{specs: sweepSpecs(b.opt.Seed, sz)}
	for _, spec := range ref.specs {
		raw, report, err := b.reference(spec)
		if err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		ref.raw = append(ref.raw, raw)
		ref.reports = append(ref.reports, report)
	}
	if b.tr != nil {
		if err := b.sweepProbes(ref); err != nil {
			return err
		}
	}

	var tot serviceTotals
	hc := newClient(nproc())
	defer hc.close()
	start := time.Now()
	for cycle := 1; cycle == 1 || time.Since(start) < b.opt.Seconds; cycle++ {
		if err := b.sweepCycle(cycle, ref, hc, &tot); err != nil {
			return err
		}
	}

	// Each cycle yields its own throughput and percentiles; the metrics
	// are their medians over cycles, so a burst of load on the shared
	// host that spans a few cycles moves none of them.
	b.set("setup_s", median(tot.setups))
	b.set("recover_s", median(tot.recovers))
	for _, m := range []string{"jobs_per_s", "terminal_slots_per_s", "job_latency_p50_ms",
		"job_latency_p90_ms", "query_latency_p50_ms", "query_latency_p90_ms"} {
		b.set(m, median(tot.samples.get("cycle."+m)))
	}
	b.set("max_rss_mb", maxRSSMB())

	if b.tr != nil {
		b.setServiceLayers(&tot)
		b.set("locman.report_encode_ms", median(b.tr.ms("locman.report_encode")))
		leases := b.tr.ms("cluster.lease")
		b.set("cluster.lease_ms.p50", quantile(leases, 0.5))
		b.set("cluster.lease_ms.p90", quantile(leases, 0.9))
		b.set("cluster.leases_per_job", float64(tot.leases)/float64(tot.jobs))
		b.set("cluster.releases", float64(tot.releases))
		b.set("cluster.coord_overhead_ms", median(tot.samples.get("coord_overhead")))
	}
	return nil
}

// setServiceLayers sets the jobs.* and server.* metrics both service
// workloads measure.
func (b *bench) setServiceLayers(tot *serviceTotals) {
	for _, m := range []struct{ metric, sample string }{
		{"jobs.queue_wait_ms", "queue_wait"},
		{"jobs.run_ms", "run"},
		{"server.submit_ms", "submit"},
		{"server.result_lag_ms", "result_lag"},
	} {
		xs := tot.samples.get(m.sample)
		b.set(m.metric+".p50", quantile(xs, 0.5))
		b.set(m.metric+".p90", quantile(xs, 0.9))
	}
	frames := tot.samples.get("frames")
	b.set("server.stream_frames_per_job", sum(frames)/float64(len(frames)))
	b.set("jobs.journal_bytes_per_job", median(tot.jbytes))
	b.set("jobs.checkpoints_written", float64(tot.ckpts))
	b.set("jobs.recover_ms", median(b.tr.ms("jobs.recover")))
	b.set("jobs.replayed_records", median(tot.replayed))
}

// sweepCycle runs one boot–sweep–restart cycle.
func (b *bench) sweepCycle(cycle int, ref sweepRefs, hc *client, tot *serviceTotals) error {
	dir := filepath.Join(b.opt.Dir, "sweep-"+strconv.Itoa(cycle))
	defer os.RemoveAll(dir)
	qbody, err := json.Marshal(sweepQuery())
	if err != nil {
		return err
	}

	runtime.GC() // no collection left over from the last phase lands in the timed boot
	t0 := time.Now()
	nodes, err := b.bootCluster(dir, cycle, hc)
	if err != nil {
		return err
	}
	tot.setups = append(tot.setups, seconds(time.Since(t0)))
	want, err := b.sweepLoad(nodes[0], ref, qbody, cycle, hc, tot)
	for _, d := range nodes[1:] {
		d.close()
	}
	nodes[0].close()
	if err != nil {
		return err
	}

	// Restart: a fresh coordinator on the same data dir replays the
	// journal and loads the table, then must answer the same query.
	runtime.GC() // no collection left over from the last phase lands in the timed boot
	t1 := time.Now()
	coord, err := startDaemon(daemonConfig{dataDir: dir, coordinator: true, recoverSpan: func() timing {
		return b.tr.start("jobs.recover", strconv.Itoa(cycle))
	}})
	if !b.check("restart", err) {
		return err
	}
	defer coord.close()
	err = hc.waitReady(coord.url, nil)
	if !b.check("restart", err) {
		return err
	}
	tot.recovers = append(tot.recovers, seconds(time.Since(t1)))
	got, err := hc.query(coord.url, qbody)
	if err == nil && !bytes.Equal(got, want) {
		err = mismatch("query after restart", got, want)
	}
	b.check("query after restart", err)
	if b.tr != nil {
		tot.replayed = append(tot.replayed, float64(coord.mgr.Stats().ReplayedRecords))
	}
	return nil
}

// bootCluster starts a coordinator on dir and two workers joined to it,
// and returns them, coordinator first, once /readyz answers 200 and both
// workers are registered. The traced pass times every lease.
func (b *bench) bootCluster(dir string, cycle int, hc *client) ([]*daemon, error) {
	var wrap func(http.Handler) http.Handler
	if b.tr != nil {
		wrap = b.leaseTimer(cycle)
	}
	coord, err := startDaemon(daemonConfig{dataDir: dir, coordinator: true})
	if err != nil {
		return nil, err
	}
	nodes := []*daemon{coord}
	closeAll := func() {
		for _, d := range nodes {
			d.close()
		}
	}
	for i := 0; i < 2; i++ {
		w, err := startDaemon(daemonConfig{join: coord.url, wrap: wrap})
		if err != nil {
			closeAll()
			return nil, err
		}
		nodes = append(nodes, w)
	}
	err = hc.waitReady(coord.url, func() bool { return len(coord.coord.Registry().Alive()) == 2 })
	if err != nil {
		closeAll()
		return nil, err
	}
	return nodes, nil
}

// sweepLoad runs the closed loop over the whole sweep on a booted
// coordinator: each client takes the next job, follows it to its result,
// and queries every QueryEvery jobs. It returns the query bytes the table
// must answer afterwards, checked here once the table has caught up.
func (b *bench) sweepLoad(coord *daemon, ref sweepRefs, qbody []byte, cycle int, hc *client, tot *serviceTotals) ([]byte, error) {
	ids := make([]string, len(ref.specs))
	jobsBefore, queriesBefore := len(tot.samples.get("job")), len(tot.samples.get("query"))
	var next atomic.Int64
	var wg sync.WaitGroup
	loopStart := time.Now()
	for c := 0; c < nproc(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 1; ; done++ {
				k := int(next.Add(1) - 1)
				if k >= len(ref.specs) {
					return
				}
				ids[k] = b.serviceJob(coord, hc, ref.specs[k], ref.raw[k], cycle, tot)
				if done%b.opt.Size.QueryEvery == 0 {
					t := time.Now()
					_, err := hc.query(coord.url, qbody)
					tot.samples.add("query", millis(time.Since(t)))
					b.check("query", err)
				}
			}
		}()
	}
	wg.Wait()
	loop := seconds(time.Since(loopStart))
	var slots float64
	for _, s := range ref.specs {
		slots += float64(s.Terminals) * float64(s.Slots)
	}
	tot.jobs += len(ref.specs)
	jobLat, queryLat := tot.samples.get("job")[jobsBefore:], tot.samples.get("query")[queriesBefore:]
	for m, v := range map[string]float64{
		"jobs_per_s":           float64(len(ref.specs)) / loop,
		"terminal_slots_per_s": slots / loop,
		"job_latency_p50_ms":   quantile(jobLat, 0.5),
		"job_latency_p90_ms":   quantile(jobLat, 0.9),
		"query_latency_p50_ms": quantile(queryLat, 0.5),
		"query_latency_p90_ms": quantile(queryLat, 0.9),
	} {
		tot.samples.add("cycle."+m, v)
	}

	// The table must answer the query exactly as a table of the
	// reference rows does.
	var rows []results.Row
	for k, id := range ids {
		if id == "" {
			continue
		}
		row, err := jobs.ResultRow(id, ref.specs[k], ref.reports[k])
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	want, err := referenceQuery(rows, sweepQuery())
	if err != nil {
		return nil, err
	}
	// The manager ingests a done job's row just after the job turns
	// done, so a client can hold the last report a moment before the
	// table has its row; compare once the table has caught up.
	var got []byte
	err = waitFor(func() bool { return coord.store.Len() == len(rows) })
	if err == nil {
		got, err = hc.query(coord.url, qbody)
	}
	if err == nil && !bytes.Equal(got, want) {
		err = mismatch("final query", got, want)
	}
	b.check("final query", err)
	if b.tr != nil {
		st := coord.coord.Status()
		for _, n := range st.Nodes {
			tot.leases += n.Dispatches
		}
		tot.releases += st.Releases
		ms := coord.mgr.Stats()
		tot.jbytes = append(tot.jbytes, float64(ms.JournalBytes)/float64(len(ref.specs)))
		tot.ckpts += ms.CheckpointsWritten
	}
	return want, nil
}

// serviceJob submits one job, follows its stream to the result, fetches
// the report bytes and checks them; it returns the job id ("" when the
// submit failed). The traced pass reads the job's lifecycle timestamps
// from the manager in process.
func (b *bench) serviceJob(d *daemon, hc *client, spec jobs.Spec, want []byte, cycle int, tot *serviceTotals) string {
	t := time.Now()
	sp := b.tr.start("server.submit", "")
	v, err := hc.submit(d.url, spec)
	submit := sp.stop()
	if !b.check("submit", err) {
		return ""
	}
	frames, err := hc.follow(d.url, v.ID)
	var raw []byte
	if err == nil {
		raw, err = hc.result(d.url, v.ID)
	}
	inHand := time.Now()
	tot.samples.add("job", millis(inHand.Sub(t)))
	if err == nil && !bytes.Equal(raw, want) {
		err = mismatch("report of "+v.ID, raw, want)
	}
	if !b.check("job", err) || b.tr == nil {
		return v.ID
	}

	view, err := d.mgr.Get(v.ID)
	if err != nil || view.Started == nil || view.Finished == nil {
		b.check("job view", fmt.Errorf("job %s has no lifecycle timestamps: %v", v.ID, err))
		return v.ID
	}
	run := millis(view.Finished.Sub(*view.Started))
	tot.samples.add("submit", millis(submit))
	tot.samples.add("queue_wait", millis(view.Started.Sub(view.Created)))
	tot.samples.add("run", run)
	tot.samples.add("result_lag", millis(inHand.Sub(*view.Finished)))
	tot.samples.add("frames", float64(frames))
	if d.coord != nil {
		slowest := b.tr.longest("cluster.lease", strconv.Itoa(cycle)+"/"+v.ID)
		tot.samples.add("coord_overhead", run-millis(slowest))
	}
	return v.ID
}

// leaseTimer is the benchmark's middleware around a worker's handler: it
// times each slice lease, from the request's arrival until the worker has
// streamed the partial, under the job the lease belongs to.
func (b *bench) leaseTimer(cycle int) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost || r.URL.Path != "/api/v1/slices" {
				next.ServeHTTP(w, r)
				return
			}
			body, err := io.ReadAll(r.Body)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			// The worker validates the lease itself; the job id only
			// labels the span.
			var lease cluster.SliceRequest
			_ = json.Unmarshal(body, &lease)
			sp := b.tr.start("cluster.lease", strconv.Itoa(cycle)+"/"+lease.Job)
			next.ServeHTTP(w, r)
			sp.stop()
		})
	}
}

// sweepProbes times single layers on the sweep's own inputs, before the
// timed window: the optimizer for every network-optimized spec, the
// partial codec, a journal taking the sweep's record mix, and the results
// table growing to the sweep's row count.
func (b *bench) sweepProbes(ref sweepRefs) error {
	b.probeStats()
	var optimize []float64
	for _, spec := range ref.specs {
		if spec.Threshold != nil {
			continue
		}
		cfg, err := spec.NetworkConfig()
		if err != nil {
			return err
		}
		sp := b.tr.start("core.optimize", spec.Scenario)
		_, err = locman.Optimize(cfg.Config)
		optimize = append(optimize, millis(sp.stop()))
		if err != nil {
			return fmt.Errorf("optimize %s: %w", spec.Scenario, err)
		}
	}
	b.set("core.optimize_ms", median(optimize))

	var enc, dec, size []float64
	for _, spec := range ref.specs[:min(len(ref.specs), 20)] {
		cfg, err := spec.NetworkConfig()
		if err != nil {
			return err
		}
		p, err := locman.SimulateNetworkSlice(context.Background(), cfg, spec.Slots, spec.Shards, 0, 1)
		if err != nil {
			return err
		}
		sp := b.tr.start("sim.partial_encode", "")
		data, err := locman.EncodePartial(p)
		enc = append(enc, millis(sp.stop()))
		if err != nil {
			return err
		}
		sp = b.tr.start("sim.partial_decode", "")
		_, err = locman.DecodePartial(data)
		dec = append(dec, millis(sp.stop()))
		if err != nil {
			return err
		}
		size = append(size, float64(len(data)))
	}
	b.set("sim.partial_encode_ms", median(enc))
	b.set("sim.partial_decode_ms", median(dec))
	b.set("sim.partial_bytes", median(size))

	var recs []jobs.Record
	var rows []results.Row
	for k, spec := range ref.specs {
		id := fmt.Sprintf("j%06d", k+1)
		now := time.Now()
		recs = append(recs,
			jobs.Record{Kind: jobs.KindSubmit, Time: now, Job: id, Spec: &spec},
			jobs.Record{Kind: jobs.KindState, Time: now, Job: id, From: jobs.StateQueued, To: jobs.StateRunning},
			jobs.Record{Kind: jobs.KindDispatch, Time: now, Job: id, Node: "n1", Lo: 0, Hi: 1},
			jobs.Record{Kind: jobs.KindDispatch, Time: now, Job: id, Node: "n2", Lo: 1, Hi: 2},
			jobs.Record{Kind: jobs.KindResult, Time: now, Job: id, Result: ref.raw[k]},
			jobs.Record{Kind: jobs.KindState, Time: now, Job: id, From: jobs.StateRunning, To: jobs.StateDone},
		)
		row, err := jobs.ResultRow(id, spec, ref.reports[k])
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	if err := b.probeJournal(recs); err != nil {
		return err
	}
	return b.probeIngest(rows, sweepQuery())
}
