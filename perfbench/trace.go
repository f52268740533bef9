package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it measures.
type span struct {
	Name string
	Dur  time.Duration
}

// tracer keeps the spans of a traced run in memory. A nil *tracer is the
// untraced run: start still times the call but records nothing.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// slowest indexes the longest span per name and attr, the request the
	// call served (a job id, a shard), so a job's slowest call is found.
	slowest map[[2]string]time.Duration
}

func newTracer() *tracer {
	return &tracer{slowest: map[[2]string]time.Duration{}}
}

// timing is an open span; stop closes it.
type timing struct {
	t     *tracer
	name  string
	attr  string
	start time.Time
}

// start opens a span named after the layer function it wraps.
func (t *tracer) start(name, attr string) timing {
	return timing{t: t, name: name, attr: attr, start: time.Now()}
}

// stop closes the span and returns its duration.
func (s timing) stop() time.Duration {
	d := time.Since(s.start)
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{Name: s.name, Dur: d})
		key := [2]string{s.name, s.attr}
		s.t.slowest[key] = max(s.t.slowest[key], d)
		s.t.mu.Unlock()
	}
	return d
}

// ms returns the durations of every span with the given name, in
// milliseconds, in recording order.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, millis(s.Dur))
	}
	return out
}

// longest returns the duration of the longest span with the given name
// and attr, 0 when there is none.
func (t *tracer) longest(name, attr string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slowest[[2]string{name, attr}]
}

// byName returns the recorded spans with the given name.
func (t *tracer) byName(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (the convention of Python's statistics "inclusive"
// method); NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func seconds(d time.Duration) float64 { return d.Seconds() }

func millis(d time.Duration) float64 { return float64(d) / 1e6 }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
