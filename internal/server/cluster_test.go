package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/jobs"
)

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestClusterExchange drives the coordinator control plane end to end
// over HTTP: register, heartbeat, the unknown-id re-register signal, the
// /cluster document, per-node metrics — and a distributed job submitted
// through the normal jobs API whose result must be byte-identical to the
// same spec run on a plain single-node server.
func TestClusterExchange(t *testing.T) {
	spec := testSpec()

	// Reference result from a plain server.
	plain, _ := newTestServer(t, jobs.Options{}, Options{})
	status, raw := doJSON(t, http.MethodPost, plain.URL+"/api/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, raw)
	}
	var pv jobs.View
	if err := json.Unmarshal(raw, &pv); err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, plain.URL, pv.ID); final.State != jobs.StateDone {
		t.Fatalf("single-node job finished %s (%s)", final.State, final.Error)
	}
	status, want := doJSON(t, http.MethodGet, plain.URL+"/api/v1/jobs/"+pv.ID+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("single-node result: status %d", status)
	}

	// Coordinator server plus two worker servers, wired the way
	// pcnserve -coordinator / -worker wires them. The generous registry
	// timeout stands in for the heartbeat loop Worker.Run would drive.
	coord := cluster.NewCoordinator(cluster.NewRegistry(time.Minute, nil), cluster.Options{})
	coordSrv, _ := newTestServer(t,
		jobs.Options{Runner: coord}, Options{Cluster: coord})

	for i := 0; i < 2; i++ {
		w, err := cluster.NewWorker(cluster.WorkerOptions{
			Join:        coordSrv.URL,
			Advertise:   "http://advertise.invalid", // real URL registered below
			StreamEvery: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		wsrv, _ := newTestServer(t, jobs.Options{}, Options{Worker: w})

		// Join through the real endpoints, as Worker.Run would.
		status, body := doJSON(t, http.MethodPost, coordSrv.URL+"/api/v1/cluster/register",
			cluster.RegisterRequest{Schema: cluster.WireSchema, Addr: wsrv.URL})
		if status != http.StatusOK {
			t.Fatalf("register: %d %s", status, body)
		}
		var rr cluster.RegisterResponse
		if err := json.Unmarshal(body, &rr); err != nil || rr.ID == "" {
			t.Fatalf("register response %s: %v", body, err)
		}
		if st, _ := doJSON(t, http.MethodPost, coordSrv.URL+"/api/v1/cluster/heartbeat",
			cluster.HeartbeatRequest{Schema: cluster.WireSchema, ID: rr.ID}); st != http.StatusNoContent {
			t.Fatalf("heartbeat: %d", st)
		}
	}
	// A malformed address and a heartbeat for an id the coordinator never
	// issued are both client errors; the latter is the re-register signal.
	if st, _ := doJSON(t, http.MethodPost, coordSrv.URL+"/api/v1/cluster/register",
		cluster.RegisterRequest{Schema: cluster.WireSchema, Addr: "not a url"}); st != http.StatusBadRequest {
		t.Fatalf("bad-addr register: %d, want 400", st)
	}
	if st, _ := doJSON(t, http.MethodPost, coordSrv.URL+"/api/v1/cluster/heartbeat",
		cluster.HeartbeatRequest{Schema: cluster.WireSchema, ID: "n999"}); st != http.StatusNotFound {
		t.Fatalf("unknown-node heartbeat: %d, want 404", st)
	}

	// The same spec through the coordinator's jobs API.
	status, raw = doJSON(t, http.MethodPost, coordSrv.URL+"/api/v1/jobs", spec)
	if status != http.StatusAccepted {
		t.Fatalf("distributed submit: status %d: %s", status, raw)
	}
	var dv jobs.View
	if err := json.Unmarshal(raw, &dv); err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, coordSrv.URL, dv.ID); final.State != jobs.StateDone {
		t.Fatalf("distributed job finished %s (%s)", final.State, final.Error)
	}
	status, got := doJSON(t, http.MethodGet, coordSrv.URL+"/api/v1/jobs/"+dv.ID+"/result", nil)
	if status != http.StatusOK {
		t.Fatalf("distributed result: status %d", status)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("distributed result diverged from the single-node result")
	}

	// The /cluster document reflects the fleet and the finished job.
	status, body := doJSON(t, http.MethodGet, coordSrv.URL+"/cluster", nil)
	if status != http.StatusOK {
		t.Fatalf("/cluster: %d %s", status, body)
	}
	var doc cluster.Status
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != cluster.WireSchema || len(doc.Nodes) != 2 {
		t.Fatalf("/cluster document: %s", body)
	}
	if len(doc.Leases) != 0 || doc.Releases != 0 {
		t.Fatalf("leftover leases after a clean run: %s", body)
	}
	var partials int64
	for _, n := range doc.Nodes {
		if !n.Alive {
			t.Errorf("node %s not alive in /cluster", n.ID)
		}
		partials += n.Partials
	}
	if partials != int64(spec.Shards) {
		t.Fatalf("nodes delivered %d partials, want %d", partials, spec.Shards)
	}

	// Per-node Prometheus series on the coordinator's /metrics.
	metrics := getBody(t, coordSrv.URL+"/metrics")
	for _, line := range []string{
		"pcnserve_cluster_nodes 2",
		"pcnserve_cluster_active_leases 0",
		"pcnserve_cluster_releases_total 0",
		`pcnserve_cluster_node_up{node="n001"`,
		`pcnserve_cluster_node_dispatches_total{node="n001"} 1`,
		`pcnserve_cluster_node_partials_total{node="n002"} 1`,
	} {
		if !strings.Contains(metrics, line) {
			t.Errorf("coordinator /metrics missing %q", line)
		}
	}
}

// TestClusterEndpointsAbsentOnPlainServer: a daemon started without a
// cluster role must not expose the cluster surface at all.
func TestClusterEndpointsAbsentOnPlainServer(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Options{}, Options{})
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/cluster"},
		{http.MethodPost, "/api/v1/cluster/register"},
		{http.MethodPost, "/api/v1/cluster/heartbeat"},
		{http.MethodPost, "/api/v1/slices"},
	} {
		status, _ := doJSON(t, probe.method, srv.URL+probe.path, nil)
		if status != http.StatusNotFound {
			t.Errorf("%s %s on a plain server: %d, want 404", probe.method, probe.path, status)
		}
	}
	if metrics := getBody(t, srv.URL+"/metrics"); strings.Contains(metrics, "pcnserve_cluster_") ||
		strings.Contains(metrics, "pcnserve_worker_slices_") {
		t.Error("plain server exposes cluster metric series")
	}
}

// TestWorkerServerServesSliceAndMetrics: a worker-role server exposes the
// slice endpoint and its own served/failed counters.
func TestWorkerServerServesSliceAndMetrics(t *testing.T) {
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Join:        "http://coordinator.invalid",
		Advertise:   "http://advertise.invalid",
		StreamEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	wsrv, _ := newTestServer(t, jobs.Options{}, Options{Worker: w})

	spec := testSpec()
	shards := spec.ResolvedShards()
	status, raw := doJSON(t, http.MethodPost, wsrv.URL+"/api/v1/slices", cluster.SliceRequest{
		Schema: cluster.WireSchema, Job: "j000001",
		SpecRev: cluster.SpecRevision(spec, shards),
		Spec:    spec, Shards: shards, Lo: 0, Hi: 1,
	})
	if status != http.StatusOK {
		t.Fatalf("slice: %d %s", status, raw)
	}
	var sawPartial bool
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var fr cluster.SliceFrame
		if err := json.Unmarshal([]byte(line), &fr); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		switch fr.Type {
		case cluster.FramePartial:
			sawPartial = true
			if _, err := fr.Partial.Decode(); err != nil {
				t.Fatalf("partial does not decode: %v", err)
			}
		case cluster.FrameError:
			t.Fatalf("worker reported: %s", fr.Error)
		}
	}
	if !sawPartial {
		t.Fatalf("stream never delivered a partial:\n%s", raw)
	}
	if !strings.Contains(getBody(t, wsrv.URL+"/metrics"), "pcnserve_worker_slices_served_total 1") {
		t.Error("worker /metrics does not count the served slice")
	}
}

// TestServerBodyLimit: every endpoint reads its body through the
// server's one size cap, so an oversized job spec and an oversized
// slice request are both refused with a 400 before anything runs.
func TestServerBodyLimit(t *testing.T) {
	w, err := cluster.NewWorker(cluster.WorkerOptions{
		Join:      "http://coordinator.invalid",
		Advertise: "http://advertise.invalid",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, mgr := newTestServer(t, jobs.Options{}, Options{Worker: w})

	huge := testSpec()
	huge.Scenario = strings.Repeat("x", maxBodyBytes)
	status, raw := doJSON(t, http.MethodPost, srv.URL+"/api/v1/jobs", huge)
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "request body too large") {
		t.Errorf("oversized spec: status %d (body %.200s), want 400 naming the size cap", status, raw)
	}
	if n := len(mgr.List()); n != 0 {
		t.Errorf("%d jobs created from an oversized spec, want 0", n)
	}

	status, raw = doJSON(t, http.MethodPost, srv.URL+"/api/v1/slices", cluster.SliceRequest{
		Schema: cluster.WireSchema, Job: "j000001", Spec: huge, Shards: 1, Lo: 0, Hi: 1,
	})
	if status != http.StatusBadRequest || !strings.Contains(string(raw), "request body too large") {
		t.Errorf("oversized slice request: status %d (body %.200s), want 400 naming the size cap", status, raw)
	}
	if strings.Contains(getBody(t, srv.URL+"/metrics"), "pcnserve_worker_slices_served_total 1") {
		t.Error("worker served an oversized slice request")
	}
}
