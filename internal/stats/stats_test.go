package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 {
		t.Error("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if math.Abs(a.Mean()-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", a.Mean())
	}
	// Sample variance of the classic dataset: Σ(x−5)² = 32, /7.
	if want := 32.0 / 7.0; math.Abs(a.Variance()-want) > 1e-12 {
		t.Errorf("Variance = %v, want %v", a.Variance(), want)
	}
	if math.Abs(a.StdDev()-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Errorf("StdDev = %v", a.StdDev())
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func TestAccumulatorMinMax(t *testing.T) {
	var a Accumulator
	if a.Min() != 0 || a.Max() != 0 {
		t.Error("empty accumulator extrema not zero")
	}
	for _, x := range []float64{3, -1, 7, 2} {
		a.Add(x)
	}
	if a.Min() != -1 || a.Max() != 7 {
		t.Errorf("min %v max %v", a.Min(), a.Max())
	}
	// Merge combines extrema.
	var b Accumulator
	b.Add(-9)
	b.Add(100)
	a.Merge(&b)
	if a.Min() != -9 || a.Max() != 100 {
		t.Errorf("after merge: min %v max %v", a.Min(), a.Max())
	}
	// All-positive streams must not report a spurious zero minimum.
	var c Accumulator
	c.Add(5)
	c.Add(8)
	if c.Min() != 5 {
		t.Errorf("positive-stream min %v", c.Min())
	}
}

func TestAccumulatorSingleObservation(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 {
		t.Errorf("mean %v var %v", a.Mean(), a.Variance())
	}
}

func TestAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) < 2 {
			return true
		}
		var a Accumulator
		sum := 0.0
		for _, x := range xs {
			a.Add(x)
			sum += x
		}
		mean := sum / float64(len(xs))
		ss := 0.0
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		variance := ss / float64(len(xs)-1)
		scale := math.Max(1, math.Abs(mean))
		if math.Abs(a.Mean()-mean)/scale > 1e-9 {
			return false
		}
		vscale := math.Max(1, variance)
		return math.Abs(a.Variance()-variance)/vscale < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeEquivalentToSequential(t *testing.T) {
	var whole, left, right Accumulator
	rng := NewRNG(9)
	for i := 0; i < 1000; i++ {
		x := rng.Float64()*10 - 5
		whole.Add(x)
		if i%2 == 0 {
			left.Add(x)
		} else {
			right.Add(x)
		}
	}
	left.Merge(&right)
	if left.N() != whole.N() {
		t.Fatalf("N %d vs %d", left.N(), whole.N())
	}
	if math.Abs(left.Mean()-whole.Mean()) > 1e-12 {
		t.Errorf("mean %v vs %v", left.Mean(), whole.Mean())
	}
	if math.Abs(left.Variance()-whole.Variance()) > 1e-9 {
		t.Errorf("variance %v vs %v", left.Variance(), whole.Variance())
	}
	// Merging an empty accumulator is a no-op in both directions.
	var empty Accumulator
	before := left
	left.Merge(&empty)
	if left != before {
		t.Error("merging empty changed accumulator")
	}
	empty.Merge(&left)
	if empty != left {
		t.Error("merge into empty did not copy")
	}
}

func TestCIShrinksWithN(t *testing.T) {
	rng := NewRNG(4)
	var small, large Accumulator
	for i := 0; i < 100; i++ {
		small.Add(rng.Float64())
	}
	for i := 0; i < 10000; i++ {
		large.Add(rng.Float64())
	}
	if large.CI(0.95) >= small.CI(0.95) {
		t.Errorf("CI did not shrink: %v vs %v", large.CI(0.95), small.CI(0.95))
	}
}

func TestZQuantileKnownValues(t *testing.T) {
	cases := []struct{ p, z float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.995, 2.575829},
		{0.841344746, 1.0},
		{0.025, -1.959964},
	}
	for _, tc := range cases {
		if got := zQuantile(tc.p); math.Abs(got-tc.z) > 1e-4 {
			t.Errorf("zQuantile(%v) = %v, want %v", tc.p, got, tc.z)
		}
	}
}

func TestZQuantilePanicsOutOfRange(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("zQuantile(%v) did not panic", p)
				}
			}()
			zQuantile(p)
		}()
	}
}

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(123)
	b := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(124)
	same := 0
	for i := 0; i < 100; i++ {
		if b.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 equal values", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(0) // seed 0 must still work (splitmix64 seeding)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v", v)
		}
	}
}

func TestRNGUniformity(t *testing.T) {
	r := NewRNG(77)
	const n = 6
	counts := make([]int, n)
	const draws = 120000
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	for i, c := range counts {
		// Expected 20000 per bucket; allow ±3%.
		if c < draws/n*97/100 || c > draws/n*103/100 {
			t.Errorf("bucket %d: %d draws", i, c)
		}
	}
}

func TestRNGBernoulli(t *testing.T) {
	r := NewRNG(5)
	hits := 0
	const draws = 100000
	for i := 0; i < draws; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / draws
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", rate)
	}
}

// TestBernoulliThresholdMatchesBernoulli checks the exact-equivalence
// claim on BernoulliThreshold: for any p, BernoulliT(BernoulliThreshold(p))
// agrees with Bernoulli(p) on every draw of the same stream — including p
// values engineered to sit a single ulp away from a representable draw.
func TestBernoulliThresholdMatchesBernoulli(t *testing.T) {
	ps := []float64{0, 1, 0.5, 0.3, 0.05, 0.01, 1e-9, 1 - 1e-12,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
		1.0 / (1 << 53), math.Nextafter(1.0/(1<<53), 0),
		-0.2, 1.5, // clamped like Bernoulli's comparison treats them
	}
	for _, p := range ps {
		thr := BernoulliThreshold(p)
		a, b := NewRNG(77), NewRNG(77)
		for i := 0; i < 4096; i++ {
			if got, want := a.BernoulliT(thr), b.Bernoulli(p); got != want {
				t.Fatalf("p=%v draw %d: BernoulliT=%v Bernoulli=%v", p, i, got, want)
			}
		}
	}
	// Adversarial: p exactly on each representable draw boundary must keep
	// the strict inequality (draw == p stays false).
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		u := r.Uint64() >> 11
		p := float64(u) / (1 << 53)
		thr := BernoulliThreshold(p)
		if (u < thr) != (float64(u)/(1<<53) < p) {
			t.Fatalf("boundary p=%v u=%d: threshold %d flips the strict compare", p, u, thr)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// refUint64 is the textbook in-place xoshiro256** step, the reference
// that Uint64 and the four-word kernel next must match.
func refUint64(s *[4]uint64) uint64 {
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func TestUint64MatchesInPlaceStep(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, ^uint64(0)} {
		r := NewRNG(seed)
		ref := r.s
		for i := 0; i < 10_000; i++ {
			if got, want := r.Uint64(), refUint64(&ref); got != want || r.s != ref {
				t.Fatalf("seed %d draw %d: Uint64 = %d state %v, reference %d state %v",
					seed, i, got, r.s, want, ref)
			}
		}
	}
}

// refIntn is Intn's two-division form: the rejection threshold
// 2^64 mod n is computed before every draw.
func refIntn(r *RNG, n int) int {
	bound := uint64(n)
	threshold := (math.MaxUint64 - bound + 1) % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// TestIntnMatchesTwoDivisionForm runs Intn and its two-division
// reference on the same stream: outputs and the generator state after
// every call must agree, including at n = 2^62+1, where about a quarter
// of draws fall below the threshold and are rejected.
func TestIntnMatchesTwoDivisionForm(t *testing.T) {
	for _, n := range []int{1, 2, 6, 1000, 1<<62 + 1} {
		a, b := NewRNG(uint64(n)), NewRNG(uint64(n))
		rejected := 0
		for i := 0; i < 20_000; i++ {
			before := b.s
			got, want := a.Intn(n), refIntn(b, n)
			if got != want || a.s != b.s {
				t.Fatalf("n=%d call %d: Intn = %d state %v, reference %d state %v",
					n, i, got, a.s, want, b.s)
			}
			// More than one draw consumed means a draw was rejected.
			oneDraw := before
			refUint64(&oneDraw)
			if oneDraw != b.s {
				rejected++
			}
		}
		if n == 1<<62+1 && rejected == 0 {
			t.Fatalf("n=%d: no call rejected a draw; the rejection path went untested", n)
		}
	}
}

// BenchmarkIntn times the direction draw of a 2-D move, Intn(6).
func BenchmarkIntn(b *testing.B) {
	r := NewRNG(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(6)
	}
	benchSink = uint64(sink)
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(11)
	a := parent.Split()
	b := parent.Split()
	equal := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			equal++
		}
	}
	if equal > 2 {
		t.Errorf("split streams look correlated: %d/100 equal", equal)
	}
}

// TestMergeExtremaNegativeStreams checks min/max propagation when every
// observation is negative: the zero-valued min/max fields must never leak
// a spurious 0 into the merged extrema.
func TestMergeExtremaNegativeStreams(t *testing.T) {
	var a, b Accumulator
	for _, x := range []float64{-5, -3, -8} {
		a.Add(x)
	}
	for _, x := range []float64{-1, -12} {
		b.Add(x)
	}
	a.Merge(&b)
	if a.Min() != -12 || a.Max() != -1 {
		t.Errorf("merged extrema (%v, %v), want (-12, -1)", a.Min(), a.Max())
	}
	if a.N() != 5 {
		t.Errorf("merged n = %d, want 5", a.N())
	}
}

// TestMergeEmptyIntoNonempty: folding an empty accumulator must be a
// no-op — in particular its zero min/max must not clamp the extrema.
func TestMergeEmptyIntoNonempty(t *testing.T) {
	var a, empty Accumulator
	a.Add(3)
	a.Add(7)
	want := a
	a.Merge(&empty)
	if a != want {
		t.Errorf("merging empty changed the accumulator: %+v vs %+v", a, want)
	}
}

// TestMergeNonemptyIntoEmpty: the receiver adopts the argument wholesale,
// extrema included.
func TestMergeNonemptyIntoEmpty(t *testing.T) {
	var a, b Accumulator
	b.Add(-4)
	b.Add(9)
	a.Merge(&b)
	if a != b {
		t.Errorf("empty receiver did not adopt the argument: %+v vs %+v", a, b)
	}
	if a.Min() != -4 || a.Max() != 9 {
		t.Errorf("extrema (%v, %v), want (-4, 9)", a.Min(), a.Max())
	}
}

// TestMergeExtremaAcrossPartitions: whatever the partition of a stream
// with negative and positive values, the merged extrema equal the
// sequential ones.
func TestMergeExtremaAcrossPartitions(t *testing.T) {
	xs := []float64{3, -7, 0, 15, -2, 8, -7, 15}
	var seq Accumulator
	for _, x := range xs {
		seq.Add(x)
	}
	for split := 0; split <= len(xs); split++ {
		var lo, hi Accumulator
		for _, x := range xs[:split] {
			lo.Add(x)
		}
		for _, x := range xs[split:] {
			hi.Add(x)
		}
		lo.Merge(&hi)
		if lo.Min() != seq.Min() || lo.Max() != seq.Max() || lo.N() != seq.N() {
			t.Errorf("split %d: merged (n=%d, min=%v, max=%v), want (n=%d, min=%v, max=%v)",
				split, lo.N(), lo.Min(), lo.Max(), seq.N(), seq.Min(), seq.Max())
		}
	}
}
