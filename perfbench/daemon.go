package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
	"repro/internal/results"
	"repro/internal/server"
)

// daemon is one pcnserve composed in process from the constructors
// cmd/pcnserve uses, serving on a loopback port.
type daemon struct {
	url    string
	mgr    *jobs.Manager
	store  *results.Store
	coord  *cluster.Coordinator
	http   *http.Server
	served chan struct{} // closed when Serve has returned
	// stopWorker ends a worker's join loop; joined is closed once it has.
	stopWorker context.CancelFunc
	joined     chan struct{}
}

// daemonConfig is the subset of pcnserve's flags the workloads use.
type daemonConfig struct {
	dataDir         string
	checkpointEvery int64
	coordinator     bool
	// join makes the daemon a cluster worker of the coordinator at this URL.
	join string
	// wrap, when set, wraps the daemon's HTTP handler.
	wrap func(http.Handler) http.Handler
	// recoverSpan names the span around Manager.Recover.
	recoverSpan func() timing
}

// startDaemon builds and serves one daemon. With a data dir it replays
// the journal, as pcnserve does, after the listener is up; the caller
// waits for /readyz.
func startDaemon(cfg daemonConfig) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{url: "http://" + ln.Addr().String(), served: make(chan struct{})}
	d.store = results.NewStore()
	if cfg.dataDir != "" {
		if err := os.MkdirAll(cfg.dataDir, 0o755); err != nil {
			ln.Close()
			return nil, err
		}
		if d.store, err = results.Open(filepath.Join(cfg.dataDir, "results.table.json")); err != nil {
			ln.Close()
			return nil, err
		}
	}
	var wrk *cluster.Worker
	if cfg.coordinator {
		d.coord = cluster.NewCoordinator(cluster.NewRegistry(0, nil), cluster.Options{})
	}
	if cfg.join != "" {
		if wrk, err = cluster.NewWorker(cluster.WorkerOptions{Join: cfg.join, Advertise: d.url}); err != nil {
			ln.Close()
			return nil, err
		}
	}
	opts := jobs.Options{DataDir: cfg.dataDir, CheckpointEvery: cfg.checkpointEvery, Results: d.store}
	if d.coord != nil {
		opts.Runner = d.coord
	}
	d.mgr = jobs.New(opts)
	var h http.Handler = server.New(d.mgr, server.Options{Results: d.store, Cluster: d.coord, Worker: wrk})
	if cfg.wrap != nil {
		h = cfg.wrap(h)
	}
	d.http = &http.Server{Handler: h}
	go func() {
		defer close(d.served)
		_ = d.http.Serve(ln)
	}()
	if wrk != nil {
		ctx, cancel := context.WithCancel(context.Background())
		d.stopWorker, d.joined = cancel, make(chan struct{})
		go func() {
			defer close(d.joined)
			_ = wrk.Run(ctx)
		}()
	}
	if cfg.dataDir != "" {
		var sp timing
		if cfg.recoverSpan != nil {
			sp = cfg.recoverSpan()
		}
		err := d.mgr.Recover()
		if cfg.recoverSpan != nil {
			sp.stop()
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("journal recovery: %w", err)
		}
	}
	return d, nil
}

// close drains the daemon and waits for every goroutine it started.
func (d *daemon) close() {
	if d.stopWorker != nil {
		d.stopWorker()
		<-d.joined
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = d.mgr.Shutdown(ctx)
	_ = d.http.Close()
	<-d.served
}

// client is one load-generating client; clients share a transport capped
// at nproc connections per daemon.
type client struct {
	hc *http.Client
}

func newClient(conns int) *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a response with the wanted
// status.
func (c *client) do(method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

// strict decodes a JSON document, refusing unknown fields and trailing data.
func strict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON document")
	}
	return nil
}

// waitReady waits until cond holds (when given) and /readyz answers 200.
// It yields instead of sleeping between polls: a sleep's timer resolution
// would dominate a set-up that takes about a millisecond.
func (c *client) waitReady(base string, cond func() bool) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if cond == nil || cond() {
			if _, err := c.do("GET", base+"/readyz", nil, http.StatusOK); err == nil {
				return nil
			}
		}
		runtime.Gosched()
	}
	return fmt.Errorf("%s not ready within 60s", base)
}

// waitFor polls cond until it holds, for at most 10 seconds.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// submit posts a job and returns its view.
func (c *client) submit(base string, spec jobs.Spec) (jobs.View, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return jobs.View{}, err
	}
	data, err := c.do("POST", base+"/api/v1/jobs", body, http.StatusAccepted)
	if err != nil {
		return jobs.View{}, err
	}
	var v jobs.View
	if err := strict(data, &v); err != nil {
		return jobs.View{}, fmt.Errorf("submit response: %w", err)
	}
	return v, nil
}

// follow reads a job's NDJSON stream to its result frame and returns how
// many frames arrived. A job that ends in any state but done is an error.
func (c *client) follow(base, id string) (int, error) {
	resp, err := c.hc.Get(base + "/api/v1/jobs/" + id + "/stream")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	for frames := 1; ; frames++ {
		var f server.StreamFrame
		if err := dec.Decode(&f); err != nil {
			return frames, fmt.Errorf("stream %s frame %d: %w", id, frames, err)
		}
		if f.Job != id {
			return frames, fmt.Errorf("stream %s carried a frame of job %s", id, f.Job)
		}
		if f.Type == "result" {
			if f.State != jobs.StateDone {
				return frames, fmt.Errorf("job %s ended %s: %s", id, f.State, f.Error)
			}
			return frames, nil
		}
	}
}

// result fetches a done job's report bytes.
func (c *client) result(base, id string) ([]byte, error) {
	return c.do("GET", base+"/api/v1/jobs/"+id+"/result", nil, http.StatusOK)
}

// query posts a query and strictly decodes the response.
func (c *client) query(base string, body []byte) ([]byte, error) {
	data, err := c.do("POST", base+"/query", body, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var resp results.Response
	if err := strict(data, &resp); err != nil {
		return nil, fmt.Errorf("query response: %w", err)
	}
	if resp.Schema != results.QuerySchema || resp.RowsMatched > resp.RowsScanned {
		return nil, fmt.Errorf("query response schema %d, %d of %d rows matched",
			resp.Schema, resp.RowsMatched, resp.RowsScanned)
	}
	return data, nil
}

// referenceQuery is the bytes POST /query must answer for a table holding
// exactly rows: the same request run on a fresh in-memory store, encoded
// as the server encodes it.
func referenceQuery(rows []results.Row, req *results.Request) ([]byte, error) {
	s := results.NewStore()
	for _, r := range rows {
		if err := s.Ingest(r); err != nil {
			return nil, err
		}
	}
	resp, err := s.Query(req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// samples collects named per-operation samples from several client
// goroutines.
type samples struct {
	mu sync.Mutex
	xs map[string][]float64
}

func (l *samples) add(name string, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.xs == nil {
		l.xs = map[string][]float64{}
	}
	l.xs[name] = append(l.xs[name], v)
}

func (l *samples) get(name string) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]float64(nil), l.xs[name]...)
}
