package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload at tiny sizes, untraced through the
// command itself and traced through execute and emit, and checks the
// output: both lines decode strictly, the run is correct, every declared
// metric is there with its unit, end-to-end metrics are positive, and the
// traced run reports its tracing overhead and records its layer spans.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				scratch := t.TempDir()
				var tr *tracer
				if trace == "0" {
					args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.3", "--trace", trace}
					if code := run(args, tinySize(), scratch, &stdout, &stderr); code != 0 {
						t.Fatalf("exit %d\n%s", code, stderr.String())
					}
				} else {
					opt := options{Seed: 7, Seconds: 300 * time.Millisecond, Size: tinySize(), Dir: scratch}
					rec, tracer, err := execute(w, opt, true)
					if err != nil {
						t.Fatal(err)
					}
					if code := emit(rec, &stdout, &stderr); code != 0 {
						t.Fatalf("exit %d\n%s", code, stderr.String())
					}
					tr = tracer
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				if len(lines) != 2 {
					t.Fatalf("want 2 output lines, got %d:\n%s", len(lines), stdout.String())
				}
				var rec record
				if err := strict([]byte(lines[0]), &rec); err != nil {
					t.Fatalf("record line: %v", err)
				}
				var sum summary
				if err := strict([]byte(lines[1]), &sum); err != nil {
					t.Fatalf("summary line: %v", err)
				}
				if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
					t.Fatalf("run not correct: %+v\n%s", sum, stderr.String())
				}
				if rec.Seed != 7 || rec.Workload != w.name {
					t.Errorf("record names seed %d workload %q", rec.Seed, rec.Workload)
				}
				if err := validate(&rec); err != nil {
					t.Fatal(err)
				}
				declared := e2eMetrics
				if trace == "1" {
					declared = layerMetrics
				}
				if len(sum.Metrics) != len(declared) {
					t.Errorf("%d metrics, want %d", len(sum.Metrics), len(declared))
				}
				for _, m := range declared {
					got, ok := sum.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if trace == "0" && !(got.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if trace == "1" {
					if sum.Metrics["trace.untraced_jobs_per_s"].Value <= 0 {
						t.Errorf("tracing overhead not measured: %+v", sum.Metrics)
					}
					for _, name := range wantSpans[w.name] {
						if len(tr.byName(name)) == 0 {
							t.Errorf("no %s span recorded", name)
						}
					}
				}
			})
		}
	}
}

// wantSpans names spans each traced workload must record.
var wantSpans = map[string][]string{
	"sweep-cluster": {"server.submit", "cluster.lease", "jobs.recover", "jobs.journal_append", "core.optimize"},
	"long-faulty":   {"server.submit", "sim.checkpoint_encode", "sim.slice", "jobs.recover"},
}

// TestValidateRejectsMissingHost drops each host field in turn.
func TestValidateRejectsMissingHost(t *testing.T) {
	full := host{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Kernel: "linux", Commit: "git:abc"}
	if err := validateHost(full); err != nil {
		t.Fatalf("complete host rejected: %v", err)
	}
	for field, blank := range map[string]func(*host){
		"cpu_model":  func(h *host) { h.CPUModel = "" },
		"nproc":      func(h *host) { h.NProc = 0 },
		"gomaxprocs": func(h *host) { h.GOMAXPROCS = 0 },
		"go_version": func(h *host) { h.GoVersion = "" },
		"kernel":     func(h *host) { h.Kernel = "" },
		"commit":     func(h *host) { h.Commit = "" },
	} {
		h := full
		blank(&h)
		if err := validateHost(h); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("host without %s: got %v", field, err)
		}
	}
}

// TestCollectHostLeavesUnreadableFieldsEmpty checks that a CPU model or a
// kernel release that cannot be read stays empty, so that validateHost
// rejects the result instead of passing a stand-in.
func TestCollectHostLeavesUnreadableFieldsEmpty(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "absent")
	noModel := filepath.Join(dir, "cpuinfo")
	empty := filepath.Join(dir, "osrelease")
	if err := os.WriteFile(noModel, []byte("processor\t: 0\nflags\t\t: fpu\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(empty, []byte("\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{missing, noModel} {
		if got := cpuModel(p); got != "" {
			t.Errorf("cpuModel(%s) = %q, want empty", filepath.Base(p), got)
		}
	}
	for _, p := range []string{missing, empty} {
		if got := kernelRelease(p); got != "" {
			t.Errorf("kernelRelease(%s) = %q, want empty", filepath.Base(p), got)
		}
	}
	h := host{CPUModel: cpuModel(missing), NProc: 2, GOMAXPROCS: 2, GoVersion: "go1", Kernel: kernelRelease(missing), Commit: "git:abc"}
	err := validateHost(h)
	if err == nil || !strings.Contains(err.Error(), "cpu_model") || !strings.Contains(err.Error(), "kernel") {
		t.Errorf("host with unreadable cpu model and kernel: got %v", err)
	}
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables the program reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name   string  `json:"name"`
			Unit   string  `json:"unit"`
			Better string  `json:"better"`
			Bound  float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	if err := strict(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, program has %s: %s", i, w, workloads[i].name, workloads[i].why)
		}
	}
	if len(doc.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("%d end_to_end metrics, program declares %d", len(doc.EndToEnd), len(e2eMetrics))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		if (metricSpec{m.Name, m.Unit, m.Better}) != e2eMetrics[i] {
			t.Errorf("end_to_end %d: %+v, program declares %+v", i, m, e2eMetrics[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, program declares %d", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if m != layerMetrics[i] {
			t.Errorf("per_layer %d: %+v, program declares %+v", i, m, layerMetrics[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); got < c.want-1e-12 || got > c.want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestSourceDigestStable checks the commit fallback is deterministic and
// moves when a source changes.
func TestSourceDigestStable(t *testing.T) {
	dir := t.TempDir()
	write := func(body string) {
		if err := os.WriteFile(dir+"/a.go", []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("package a")
	d1, err := sourceDigest(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := sourceDigest(dir)
	write("package b")
	d3, _ := sourceDigest(dir)
	if d1 != d2 || d1 == d3 {
		t.Errorf("digests %s %s %s: want first two equal, third different", d1, d2, d3)
	}
}

func TestMetricTablesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), e2eMetrics...), layerMetrics...) {
		if seen[m.Name] {
			t.Errorf("metric %s declared twice", m.Name)
		}
		seen[m.Name] = true
	}
}
