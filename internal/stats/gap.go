package stats

// Geometric gap-sampling: draw the slot of the next event directly
// instead of asking "did it happen?" once per slot at the caller.
//
// The columnar simulation engine advances each terminal by whole
// event-free stretches, so the question it asks the RNG is not "does an
// event happen this slot?" but "how many slots until the next event?".
// A textbook geometric sampler would answer with one uniform draw and a
// logarithm — and destroy the positional-stream contract the sharded
// simulator is built on: every engine must consume the exact same draw
// at the exact same stream position so that results are bit-identical
// across engines and shard counts (see stats.SubStream and
// sim.TestColsDESEquivalence).
//
// These primitives therefore sample the geometric gap by running the
// per-slot threshold scan itself — one BernoulliT draw (or one
// call-draw/move-draw pair) per slot, in the caller's exact draw order —
// and returning how far the scan got. Equivalence with the scalar loop
// is by construction, not approximation: the loop bodies below are the
// scalar engine's per-slot draws verbatim, so the generator state after
// a gap-sampled stretch equals the state after the same stretch of
// scalar draws, position for position (property-tested and fuzzed in
// gap_test.go). What the restructuring buys is the caller's side: the
// per-slot branch-and-return dance collapses into one call that keeps
// the generator state in registers for the whole stretch.

// GapSample scans for the next success of a Bernoulli sequence with the
// precomputed integer threshold t (see BernoulliThreshold), consuming
// one draw per slot exactly like a BernoulliT-per-slot loop. It returns
// the number of failure slots consumed before the success. When no
// success occurs within limit slots it stops having consumed exactly
// limit draws and returns (limit, false).
func (r *RNG) GapSample(t uint64, limit int64) (gap int64, hit bool) {
	for gap = 0; gap < limit; gap++ {
		if r.BernoulliT(t) {
			return gap, true
		}
	}
	return limit, false
}

// EventGap scans for the next slot in which either of two ordered
// Bernoulli events fires: each slot draws against first, and only on a
// failure draws against second — the call-then-move draw order of the
// simulator's slot sweep (sim.network.sweepSlot). It returns the number
// of event-free slots consumed before the hit and which event fired
// (firstHit). When neither fires within limit slots it returns
// (limit, false, false) with exactly 2·limit draws consumed.
//
// An event slot consumes only the draws up to its deciding one — one
// draw when first fires, two when second fires — leaving the generator
// positioned exactly where the scalar loop's event handling would pick
// it up (the direction draw of a move, the loss draws of a paging
// chain).
func (r *RNG) EventGap(first, second uint64, limit int64) (gap int64, firstHit, hit bool) {
	for gap = 0; gap < limit; gap++ {
		if r.BernoulliT(first) {
			return gap, true, true
		}
		if r.BernoulliT(second) {
			return gap, false, true
		}
	}
	return limit, false, false
}
