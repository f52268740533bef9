// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload against the program's public entry points for a fixed time,
// checks every output against a reference computed outside the timed
// window, and prints the workload's metrics, each with its unit.
//
// Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload long-faulty --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics; with --trace 1 it carries the per-layer metrics of a traced
// run. The line before it is the full record: host and build metadata,
// the seed, and the failure count. README.md describes the workloads, the
// metrics and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], fullSize(), filepath.Join(".bench_build", "tmp"), os.Stdout, os.Stderr))
}

// options is one run's configuration.
type options struct {
	Seed    uint64
	Seconds time.Duration
	Size    sizes
	// Dir is the scratch directory the run's daemons keep their data in.
	Dir string
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench is the state of one workload pass: its options, its tracer (nil
// for an untraced pass), the metrics it measured and its operation count.
type bench struct {
	opt options
	tr  *tracer

	mu        sync.Mutex
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
}

func newBench(opt options, traced bool) *bench {
	b := &bench{opt: opt, metrics: map[string]metric{}}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// set records a metric; the unit comes from the metric table.
func (b *bench) set(name string, v float64) {
	m, ok := metricByName[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	b.mu.Lock()
	b.metrics[name] = metric{Value: v, Unit: m.Unit}
	b.mu.Unlock()
}

// check counts one operation, and a failure when err is non-nil. A wrong
// output is a failure like an error.
func (b *bench) check(op string, err error) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err == nil {
		return true
	}
	b.failed++
	if len(b.failures) < 8 {
		b.failures = append(b.failures, op+": "+err.Error())
	}
	return false
}

// mismatch is the error for output bytes that differ from the reference.
func mismatch(what string, got, want []byte) error {
	return fmt.Errorf("%s differs from the reference (%d bytes, want %d)", what, len(got), len(want))
}

// record is the full result of one run. The final output line is the
// contract's subset of it.
type record struct {
	Schema         string            `json:"schema"`
	Workload       string            `json:"workload"`
	Seed           uint64            `json:"seed"`
	Trace          bool              `json:"trace"`
	Seconds        float64           `json:"seconds"`
	Host           host              `json:"host"`
	Attempted      int64             `json:"attempted"`
	Failed         int64             `json:"failed"`
	FailedFraction float64           `json:"failed_fraction"`
	Failures       []string          `json:"failures,omitempty"`
	Metrics        map[string]metric `json:"metrics"`
}

const recordSchema = "perfbench/v1"

// execute runs a workload. An untraced run measures the end-to-end
// metrics. A traced run spends half its time untraced and half traced on
// the same code path: the traced half yields the per-layer metrics, and
// the two halves' throughput gives the tracing overhead. The traced
// half's tracer is returned with the record (nil for an untraced run).
func execute(w *workload, opt options, traced bool) (*record, *tracer, error) {
	rec := &record{
		Schema: recordSchema, Workload: w.name, Seed: opt.Seed, Trace: traced,
		Seconds: opt.Seconds.Seconds(), Host: collectHost("."),
	}
	var passes []*bench
	var tr *tracer
	if !traced {
		b := newBench(opt, false)
		if err := w.run(b); err != nil {
			return nil, nil, err
		}
		passes = append(passes, b)
		rec.Metrics = pick(b.metrics, e2eMetrics, nil)
	} else {
		half := opt
		half.Seconds = opt.Seconds / 2
		u, t := newBench(half, false), newBench(half, true)
		tr = t.tr
		for _, b := range []*bench{u, t} {
			if err := w.run(b); err != nil {
				return nil, nil, err
			}
			passes = append(passes, b)
		}
		plain, withSpans := u.metrics["jobs_per_s"].Value, t.metrics["jobs_per_s"].Value
		t.set("trace.untraced_jobs_per_s", plain)
		t.set("trace.traced_jobs_per_s", withSpans)
		t.set("trace.overhead_pct", 100*(plain/withSpans-1))
		rec.Metrics = pick(t.metrics, layerMetrics, w.layers)
	}
	for _, b := range passes {
		rec.Attempted += b.attempted
		rec.Failed += b.failed
		rec.Failures = append(rec.Failures, b.failures...)
	}
	if rec.Attempted > 0 {
		rec.FailedFraction = float64(rec.Failed) / float64(rec.Attempted)
	}
	return rec, tr, nil
}

// pick returns the declared metrics out of measured. A per-layer metric
// of a layer the workload does not exercise reads 0; any other metric
// missing is left out, for validate to reject.
func pick(measured map[string]metric, declared []metricSpec, exercised []string) map[string]metric {
	out := map[string]metric{}
	for _, m := range declared {
		if v, ok := measured[m.Name]; ok {
			out[m.Name] = v
		} else if exercised != nil && !exercises(exercised, m.Name) {
			out[m.Name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return out
}

// exercises reports whether a metric name starts with one of the
// prefixes a workload lists for the layers it exercises.
func exercises(prefixes []string, name string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// validate rejects a record that lacks host metadata or any metric it
// must carry, or carries a value that is not a finite number.
func validate(rec *record) error {
	if err := validateHost(rec.Host); err != nil {
		return err
	}
	if rec.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	declared := e2eMetrics
	if rec.Trace {
		declared = layerMetrics
	}
	var missing []string
	for _, m := range declared {
		v, ok := rec.Metrics[m.Name]
		switch {
		case !ok:
			missing = append(missing, m.Name)
		case v.Unit != m.Unit:
			return fmt.Errorf("metric %s has unit %q, want %q", m.Name, v.Unit, m.Unit)
		case v.Value != v.Value || v.Value > 1e300 || v.Value < -1e300:
			return fmt.Errorf("metric %s is not a finite number: %v", m.Name, v.Value)
		case !rec.Trace && v.Value <= 0:
			return fmt.Errorf("end-to-end metric %s is %v, want > 0", m.Name, v.Value)
		}
	}
	if len(missing) > 0 {
		return errors.New("metrics missing: " + strings.Join(missing, ", "))
	}
	if len(rec.Metrics) != len(declared) {
		return fmt.Errorf("%d metrics, want %d", len(rec.Metrics), len(declared))
	}
	return nil
}

// summary is the contract's final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the command: it parses args, runs the workload at the given
// sizes with its data under scratch, and prints the result.
func run(args []string, size sizes, scratch string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *secs <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}

	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch directory: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	opt := options{
		Seed: *seed, Seconds: time.Duration(*secs * float64(time.Second)),
		Size: size, Dir: dir,
	}
	rec, _, err := execute(w, opt, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return emit(rec, stdout, stderr)
}

// emit validates a record and prints it: the table to stderr, the record
// and the contract line to stdout. It returns the exit code.
func emit(rec *record, stdout, stderr io.Writer) int {
	if err := validate(rec); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: invalid result: %v\n", rec.Workload, err)
		return 1
	}
	printTable(stderr, rec)
	line, _ := json.Marshal(rec)
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(summary{
		Correct: rec.Failed == 0, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: rec.Metrics,
	})
	fmt.Fprintln(stdout, string(line))
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

// printTable writes the record for a human reader.
func printTable(w io.Writer, rec *record) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v seconds=%g\n", rec.Workload, rec.Seed, rec.Trace, rec.Seconds)
	h := rec.Host
	fmt.Fprintf(w, "  host: %s, nproc=%d, GOMAXPROCS=%d, %s, %s, %s\n",
		h.CPUModel, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Kernel, h.Commit)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-32s %14.6g %s  (%d of %d operations)\n",
		"failed_fraction", rec.FailedFraction, "ratio", rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
}
