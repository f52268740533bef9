// Command pcnserve is the long-running simulation job service: it
// accepts PCN simulation jobs over an HTTP/JSON API, runs them on a
// bounded worker pool backed by the sharded engines, streams telemetry
// while they run, and exposes the operational endpoints a deployment
// needs (/healthz, /readyz, Prometheus-text /metrics).
//
//	pcnserve -addr :8080 -workers 4 -queue 64
//
// Jobs are deterministic: a job submitted with a given seed and shard
// count produces a final report byte-identical to running pcnsim -json
// with the same configuration. On SIGTERM/SIGINT the daemon flips
// /readyz to draining, stops accepting jobs, cancels what is still
// queued or running once the drain timeout expires, and exits.
//
// With -data-dir the service is crash-safe: every job lifecycle event
// is appended to a checksummed journal, and with -checkpoint-every N
// running jobs periodically persist resumable engine checkpoints. After
// a crash (even SIGKILL) a restart replays the journal, restores
// completed results byte-for-byte, re-enqueues interrupted jobs, and
// resumes them from their last checkpoint — the final report is still
// byte-identical to an uninterrupted run.
//
// Cluster mode distributes single jobs across machines while keeping
// the same byte-identity guarantee:
//
//	pcnserve -coordinator -addr :8080
//	pcnserve -worker -join http://coord:8080 -advertise http://me:8081 -addr :8081
//
// A coordinator accepts ordinary job submissions, slices each job's
// shard partition across the registered workers, and merges their
// partial results into a report byte-identical to a single-node run —
// including when a worker dies mid-job (its slice is re-leased).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/server"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("pcnserve: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"concurrent simulation jobs (each job additionally shards across cores)")
	queue := flag.Int("queue", 64,
		"bounded submission queue depth; submissions beyond it are rejected with 429")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long shutdown waits for queued and running jobs before cancelling them")
	streamInterval := flag.Duration("stream-interval", 500*time.Millisecond,
		"cadence of progress frames on job NDJSON streams")
	dataDir := flag.String("data-dir", "",
		"directory for the durable job journal and run checkpoints; empty disables durability")
	checkpointEvery := flag.Int64("checkpoint-every", 0,
		"persist a resumable checkpoint every N simulated slots per running job (requires -data-dir; 0 disables)")
	coordinator := flag.Bool("coordinator", false,
		"run as cluster coordinator: accept jobs and fan their shards out to registered workers")
	worker := flag.Bool("worker", false,
		"run as cluster worker: serve shard-slice leases from a coordinator (requires -join and -advertise)")
	join := flag.String("join", "",
		"coordinator base URL a worker registers with, e.g. http://coord:8080")
	advertise := flag.String("advertise", "",
		"base URL at which the coordinator can reach this worker, e.g. http://me:8081")
	heartbeatEvery := flag.Duration("heartbeat-every", cluster.DefaultHeartbeatEvery,
		"worker heartbeat cadence")
	leaseTimeout := flag.Duration("lease-timeout", cluster.DefaultLeaseTimeout,
		"coordinator declares a slice lease dead after this much stream silence and re-leases it")
	flag.Parse()

	if *workers <= 0 {
		log.Fatalf("-workers must be positive, got %d", *workers)
	}
	if *queue <= 0 {
		log.Fatalf("-queue must be positive, got %d", *queue)
	}
	if *drainTimeout <= 0 {
		log.Fatalf("-drain-timeout must be positive, got %v", *drainTimeout)
	}
	if *checkpointEvery < 0 {
		log.Fatalf("-checkpoint-every must be non-negative, got %d", *checkpointEvery)
	}
	if *checkpointEvery > 0 && *dataDir == "" {
		log.Fatal("-checkpoint-every requires -data-dir")
	}
	if *coordinator && *worker {
		log.Fatal("-coordinator and -worker are mutually exclusive")
	}
	if *worker && (*join == "" || *advertise == "") {
		log.Fatal("-worker requires -join and -advertise")
	}
	if !*worker && (*join != "" || *advertise != "") {
		log.Fatal("-join and -advertise only apply with -worker")
	}
	if *coordinator && *checkpointEvery > 0 {
		// Distributed runs have no local engine to checkpoint; recovery
		// re-dispatches interrupted jobs from slot 0.
		log.Fatal("-checkpoint-every does not apply with -coordinator")
	}

	// The analytics table: every done job flattens into it and POST
	// /query answers from it. With -data-dir the table itself persists
	// beside the journal (and loads back instantly on restart); the
	// journal replay below backfills whatever the table file lacks.
	store := results.NewStore()
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatal(err)
		}
		var err error
		store, err = results.Open(filepath.Join(*dataDir, "results.table.json"))
		if err != nil {
			log.Fatalf("results table: %v", err)
		}
	}

	// Cluster roles. The coordinator plugs into the manager as its
	// Runner, so the whole job lifecycle (queue, journal, results,
	// byte-identical reports) is unchanged — only the simulate step fans
	// out. A worker is a plain daemon plus the slice lease endpoint; it
	// registers and heartbeats in the background.
	var coord *cluster.Coordinator
	var wrk *cluster.Worker
	if *coordinator {
		coord = cluster.NewCoordinator(cluster.NewRegistry(0, nil),
			cluster.Options{LeaseTimeout: *leaseTimeout})
	}
	if *worker {
		var err error
		wrk, err = cluster.NewWorker(cluster.WorkerOptions{
			Join: *join, Advertise: *advertise, HeartbeatEvery: *heartbeatEvery,
		})
		if err != nil {
			log.Fatal(err)
		}
	}

	mgrOpts := jobs.Options{
		QueueDepth:      *queue,
		Workers:         *workers,
		DataDir:         *dataDir,
		CheckpointEvery: *checkpointEvery,
		Results:         store,
	}
	if coord != nil {
		mgrOpts.Runner = coord
	}
	mgr := jobs.New(mgrOpts)
	srv := server.New(mgr, server.Options{
		StreamInterval: *streamInterval,
		Results:        store,
		Cluster:        coord,
		Worker:         wrk,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := newHTTPServer(srv)
	log.Printf("serving on http://%s (%d workers, queue depth %d)",
		ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// A worker joins its coordinator in the background: registration
	// retries until the coordinator is reachable, then heartbeats keep
	// the node alive (re-registering after a coordinator restart).
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	if wrk != nil {
		go func() { _ = wrk.Run(workerCtx) }()
		log.Printf("worker joining %s as %s", *join, *advertise)
	}

	// Journal replay happens after the listener is up so a restarting
	// daemon answers /readyz ("recovering", 503) and /metrics from the
	// first moment; workers start only once the replay has re-enqueued
	// every interrupted job.
	if *dataDir != "" {
		start := time.Now()
		if err := mgr.Recover(); err != nil {
			log.Fatalf("journal recovery: %v", err)
		}
		st := mgr.Stats()
		log.Printf("recovered journal in %v: %d records replayed, %d jobs re-enqueued, %d analytics rows backfilled (%d in table)",
			time.Since(start).Round(time.Millisecond), st.ReplayedRecords, st.RecoveredJobs,
			st.ResultsBackfilled, st.ResultRows)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("received %s, draining (timeout %v)", sig, *drainTimeout)
	case err := <-errc:
		log.Fatal(err)
	}

	// Graceful shutdown: flip readiness first so load balancers stop
	// routing, then drain the job queue (cancelling leftovers at the
	// deadline), then close the listener once in-flight responses finish.
	srv.SetReady(false)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Shutdown(ctx); err != nil {
		log.Printf("drain timeout expired, cancelled remaining jobs: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Print("shutdown complete")
}

// Timeouts that bound what a slow or idle client can hold open: the
// time to send request headers, and how long a keep-alive connection
// may sit idle between requests.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps the API handler in the daemon's http.Server. It
// sets no WriteTimeout (and no ReadTimeout, whose deadline also covers
// the connection while a response is written): NDJSON job and slice
// streams stay open for the whole run of a job.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
}
