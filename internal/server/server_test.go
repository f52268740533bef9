package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/locman"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixedClock pins every lifecycle timestamp so API documents are
// byte-reproducible for the golden exchange.
func fixedClock() time.Time {
	return time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
}

func testSpec() jobs.Spec {
	return jobs.Spec{
		Model:      "2d",
		MoveProb:   0.05,
		CallProb:   0.01,
		UpdateCost: 100,
		PollCost:   10,
		MaxDelay:   3,
		Terminals:  10,
		Slots:      2_000,
		Shards:     2,
		Seed:       1,
	}
}

// newTestServer boots a manager+server pair on an httptest listener.
func newTestServer(t *testing.T, mopts jobs.Options, sopts Options) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	if mopts.QueueDepth == 0 {
		mopts.QueueDepth = 8
	}
	if mopts.Workers == 0 {
		mopts.Workers = 2
	}
	mgr := jobs.New(mopts)
	srv := httptest.NewServer(New(mgr, sopts))
	t.Cleanup(func() {
		srv.Close()
		_ = mgr.Shutdown(context.Background())
	})
	return srv, mgr
}

// doJSON performs a request with an optional JSON body and returns the
// status and raw response body.
func doJSON(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal body: %v", err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, raw
}

// waitState polls the API until the job reports a terminal state.
func waitDone(t *testing.T, base, id string) jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, raw := doJSON(t, http.MethodGet, base+"/api/v1/jobs/"+id, nil)
		if status != http.StatusOK {
			t.Fatalf("get %s: status %d: %s", id, status, raw)
		}
		var v jobs.View
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decode view: %v", err)
		}
		if v.State.Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished (state %s)", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestGoldenExchange replays the canonical submit→stream→done exchange
// against a checked-in golden transcript: the submit response, the job
// document after completion, and the full NDJSON stream of the finished
// job (state frame + result frame embedding the report). Timestamps come
// from a fixed clock and the simulation from a fixed seed, so every byte
// is reproducible; regenerate with -update after intentional schema
// changes.
func TestGoldenExchange(t *testing.T) {
	srv, _ := newTestServer(t,
		jobs.Options{QueueDepth: 4, Workers: 1, Clock: fixedClock},
		Options{StreamInterval: time.Hour}) // no timer-driven frames: deterministic stream
	var transcript bytes.Buffer

	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec())
	fmt.Fprintf(&transcript, "== POST /api/v1/jobs -> %d\n%s", status, raw)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}

	final := waitDone(t, srv.URL, v.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	status, raw = doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+v.ID, nil)
	fmt.Fprintf(&transcript, "== GET /api/v1/jobs/%s -> %d\n%s", v.ID, status, raw)

	// The job is done, so the stream replays deterministically: one
	// state frame and one result frame carrying the full report.
	status, raw = doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+v.ID+"/stream", nil)
	fmt.Fprintf(&transcript, "== GET /api/v1/jobs/%s/stream -> %d\n%s", v.ID, status, raw)
	if status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}

	golden := filepath.Join("testdata", "exchange_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, transcript.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(transcript.Bytes(), want) {
		t.Errorf("exchange diverged from golden transcript.\n--- got ---\n%s\n--- want ---\n%s",
			transcript.Bytes(), want)
	}
}

// TestServerResultByteIdentical is the acceptance criterion at the HTTP
// boundary: the result document served for a job is byte-identical to
// the same configuration run directly through
// locman.SimulateNetworkSharded and encoded as pcnsim -json encodes it.
func TestServerResultByteIdentical(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{}, Options{})
	spec := testSpec()
	spec.SnapshotEvery = 500

	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, srv.URL, v.ID); final.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s)", final.State, final.Error)
	}
	status, viaHTTP := doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+v.ID+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("result: status %d", status)
	}

	cfg, err := spec.NetworkConfig()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := locman.SimulateNetworkSharded(cfg, spec.Slots, spec.Shards)
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	enc := json.NewEncoder(&direct)
	enc.SetIndent("", "  ")
	if err := enc.Encode(locman.NewReport(metrics)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(viaHTTP, direct.Bytes()) {
		t.Fatal("HTTP result diverged from direct engine run")
	}
}

// TestServerQueueOverflow429 pins the backpressure contract at the HTTP
// boundary: a full queue answers 429, not 5xx and not unbounded queuing.
func TestServerQueueOverflow429(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{QueueDepth: 2, Workers: 1}, Options{})

	slow := testSpec()
	slow.Terminals = 200
	slow.Slots = 2_000_000
	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", slow)
	if status != http.StatusAccepted {
		t.Fatalf("blocker: status %d: %s", status, raw)
	}
	var blocker jobs.View
	if err := json.Unmarshal(raw, &blocker); err != nil {
		t.Fatal(err)
	}
	// Wait for pickup so the queue is empty, then fill it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, raw := doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/"+blocker.ID, nil)
		var v jobs.View
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		if v.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec()); status != http.StatusAccepted {
			t.Fatalf("fill %d: status %d: %s", i, status, raw)
		}
	}
	status, raw = doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec())
	if status != http.StatusTooManyRequests {
		t.Fatalf("overflow: status %d, want 429: %s", status, raw)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "queue full") {
		t.Fatalf("overflow body %q, err %v", raw, err)
	}
	// Unblock so cleanup shutdown stays fast.
	doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs/"+blocker.ID+"/cancel", nil)
}

// TestServerStreamLive drives a real mid-flight stream: progress frames
// while the job runs, then a result frame once it is cancelled.
func TestServerStreamLive(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{QueueDepth: 4, Workers: 1},
		Options{StreamInterval: 10 * time.Millisecond})

	big := testSpec()
	big.Terminals = 1_000
	big.Slots = 50_000_000
	big.SnapshotEvery = 1_000 // batch-boundary progress publishes per batch
	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", big)
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", status, raw)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + v.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var frames []StreamFrame
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	sawProgress := false
	go func() {
		// Let a few progress frames through, then cancel.
		time.Sleep(150 * time.Millisecond)
		doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs/"+v.ID+"/cancel", nil)
	}()
	for sc.Scan() {
		var f StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		frames = append(frames, f)
		if f.Type == "progress" {
			sawProgress = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(frames) < 2 {
		t.Fatalf("stream carried %d frames, want at least state+result", len(frames))
	}
	if frames[0].Type != "state" {
		t.Fatalf("first frame %q, want state", frames[0].Type)
	}
	last := frames[len(frames)-1]
	if last.Type != "result" || last.State != jobs.StateCancelled {
		t.Fatalf("last frame %q/%s, want result/cancelled", last.Type, last.State)
	}
	if !sawProgress {
		t.Error("no progress frame observed on a 150ms window with 10ms cadence")
	}
}

// TestServerRejectsMalformedFaultPlan: a spec whose fault plan the
// engine would refuse at start-of-run is refused at submit with a 400
// naming the fault, and no job is created.
func TestServerRejectsMalformedFaultPlan(t *testing.T) {
	srv, mgr := newTestServer(t, jobs.Options{}, Options{})
	for _, tc := range []struct {
		faults *jobs.FaultSpec
		want   string
	}{
		{&jobs.FaultSpec{UpdateLoss: 1.5}, "update loss probability 1.5 outside [0,1)"},
		{&jobs.FaultSpec{Outages: []jobs.OutageSpec{{Start: 500, End: 400}}},
			"outage window 0 is inverted or empty: [500, 400)"},
		{&jobs.FaultSpec{PageRetries: 1000},
			"jobs: invalid spec: sim: MaxThreshold 50 with 1000 paging retries needs more polling ticks than a slot holds"},
	} {
		spec := testSpec()
		spec.Faults = tc.faults
		status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", spec)
		if status != http.StatusBadRequest {
			t.Errorf("faults %+v: status %d, want 400 (body %s)", *tc.faults, status, raw)
			continue
		}
		if !strings.Contains(string(raw), tc.want) {
			t.Errorf("faults %+v: body %s does not name %q", *tc.faults, raw, tc.want)
		}
	}
	if n := len(mgr.List()); n != 0 {
		t.Fatalf("%d jobs created from rejected specs, want 0", n)
	}
}

// TestServerErrorsAndReadiness sweeps the API's edge responses: unknown
// ids, premature results, malformed specs, and the readiness flip.
func TestServerErrorsAndReadiness(t *testing.T) {
	mgr := jobs.New(jobs.Options{QueueDepth: 2, Workers: 1})
	t.Cleanup(func() { _ = mgr.Shutdown(context.Background()) })
	s := New(mgr, Options{})
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs/j999999", nil); status != http.StatusNotFound {
		t.Errorf("unknown id: status %d, want 404", status)
	}
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs/j999999/cancel", nil); status != http.StatusNotFound {
		t.Errorf("cancel unknown: status %d, want 404", status)
	}
	bad := testSpec()
	bad.Terminals = 0
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", bad); status != http.StatusBadRequest {
		t.Errorf("bad spec: status %d, want 400", status)
	}
	if status, _ := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs",
		map[string]any{"no_such_field": 1}); status != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", status)
	}

	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.URL, v.ID)

	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/healthz", nil); status != http.StatusOK {
		t.Errorf("healthz: status %d", status)
	}
	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/readyz", nil); status != http.StatusOK {
		t.Errorf("readyz: status %d", status)
	}
	s.SetReady(false)
	if status, _ := doJSON(t, http.MethodGet, srv.URL+"/readyz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("draining readyz: status %d, want 503", status)
	}

	// List carries the finished job.
	status, raw = doJSON(t, http.MethodGet, srv.URL+"/api/v1/jobs", nil)
	if status != http.StatusOK {
		t.Fatalf("list: %d", status)
	}
	var list struct {
		Schema int         `json:"schema"`
		Jobs   []jobs.View `json:"jobs"`
	}
	if err := json.Unmarshal(raw, &list); err != nil || len(list.Jobs) != 1 {
		t.Fatalf("list decode: %v, %d jobs", err, len(list.Jobs))
	}
}

// TestServerMetrics checks the Prometheus exposition: the gauges exist,
// the per-state counts track reality and the slots counter lands on the
// exact completed total.
func TestServerMetrics(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{QueueDepth: 4, Workers: 1}, Options{})
	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", testSpec())
	if status != http.StatusAccepted {
		t.Fatalf("submit: %d", status)
	}
	var v jobs.View
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	waitDone(t, srv.URL, v.ID)

	status, body := doJSON(t, http.MethodGet, srv.URL+"/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		"pcnserve_queue_depth 0",
		"pcnserve_queue_capacity 4",
		"pcnserve_workers 1",
		"pcnserve_workers_busy 0",
		`pcnserve_jobs{state="done"} 1`,
		`pcnserve_jobs{state="queued"} 0`,
		"pcnserve_terminal_slots_total 20000",
		"pcnserve_terminal_slots_per_second",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}
