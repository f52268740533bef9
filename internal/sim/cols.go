package sim

import (
	"context"

	"repro/internal/des"
	"repro/internal/grid"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The batch engine (EngineCols, the default).
//
// The reference engine pays the full discrete-event machinery for every
// slot of every terminal — a heap-driven sweep event, a map increment and
// two Bernoulli draws per terminal-slot — even though under the paper's
// parameters (q, c ≪ 1) the overwhelming majority of terminal-slots do
// nothing that needs an event queue at all. The batch engine inverts the
// loop: each terminal in turn advances through a whole slot batch,
// drawing its call/movement outcomes straight from its positional RNG
// stream with precomputed integer Bernoulli thresholds. On a pure slot —
// no queued timers — the scheduler is not touched at all: paging
// exchanges run inline through pageInline (allocation-free, with
// explicit tick bookkeeping), and only update/ack/retry machinery arms
// the terminal's own scheduler, after which the affected slots fall back
// to the event path until the queue drains.
//
// The terminal struct is the only per-terminal record: the stretch loop
// and the network code (sweeps, paging, update exchanges, queued
// timers) read and write the same fields, so nothing has to be copied
// across between them. Each terminal is visited once per batch and then
// spends its stretch inside EventGap, so the memory layout of the
// population is not what limits the loop.
//
// Inside a terminal's event-free stretch the engine does not ask "did
// anything happen this slot?" but "how many slots until something
// happens?" — stats.RNG.EventGap draws the gap to the next call-or-move
// event directly. EventGap holds the four generator words in registers
// for its whole scan and stores them once when it returns, so a stretch
// costs one call per event, not one per draw. Cell geometry is inlined
// on a concrete grid.Hex/grid.Line branch rather than called through the
// locator interface, which keeps an interface call off every move.
//
// Bit-identity with the reference engine is a contract, not an accident
// (see TestColsDESEquivalence). It rests on three facts:
//
//  1. Per-terminal draw order is untouched. The gap sampler is the
//     per-slot threshold scan of network.sweepSlot itself — one call
//     draw, then one move draw, per slot, then the in-move direction —
//     consuming the identical stream positions (stats.BernoulliThreshold
//     documents the exactness); pageInline replays the paging chain's
//     loss draws in chain order, and slow slots run sweepSlot itself.
//     The timer scheme's refresh deadline ends a stretch, so the
//     deadline slot — and every overdue slot after it, while dropped
//     calls leave the last contact stale — is a slow slot whose update
//     sweepSlot fires.
//
//  2. Cross-terminal state is commutative. Terminals meet only in
//     integer counters, fixed-bucket histograms, per-terminal HLR
//     records and the threshold-keyed paging-plan cache, so reordering
//     the sweeps across terminals cannot change any result. (callSeq
//     values are assigned in a different order, but calls are compared
//     only for equality within one terminal's paging chain and wire
//     encodings are fixed-length, so nothing observable shifts.)
//
//  3. Per-terminal event timing replays the reference tie-break. Within
//     one terminal, the reference engine orders a queued event against a
//     slot boundary by (time, insertion order) against that slot's sweep
//     event, whose insertion stamp is assigned at the end of the
//     previous slot's sweep. The batch engine reproduces the stamp with
//     SeqMark after each sweep that touches the scheduler
//     (terminal.preSweep) and splits each armed slot into the same two
//     phases with RunBefore: events due before the sweep, then the
//     sweep, then events due before the next boundary. Pure slots leave
//     the mark alone — the per-terminal insertion counter only advances
//     when something is scheduled, so the stale mark still classifies
//     every queued event exactly as the reference engine's growing
//     global counter would.

// colsCohortTerminals is the progress granularity: within a slot batch
// the shard publishes its progress after every this many terminals, so
// pollers watch a run move through a deep batch instead of seeing it
// jump at the boundary.
const colsCohortTerminals = 4096

// countThreshold credits slots more slots at threshold d to t's batched
// threshold-usage run, flushing the run first when d differs from it.
func (t *terminal) countThreshold(d int, slots int64, m *Metrics) {
	if int32(d) != t.curD {
		t.flushThreshold(m)
		t.curD, t.runLen = int32(d), 0
	}
	t.runLen += slots
}

// flushThreshold credits t's batched threshold-usage run. Flushes always
// carry runLen ≥ 1 once a slot has run, so the map never grows
// zero-valued keys the reference engine would not have.
func (t *terminal) flushThreshold(m *Metrics) {
	if t.runLen > 0 {
		m.ThresholdSlots[int(t.curD)] += t.runLen
	}
}

// runShardCols simulates terminals [r.lo, r.hi) with the batch engine,
// bit-identical to runShard for every configuration: same Metrics, same
// telemetry frame series, same histograms. Slots are processed in
// batches bounded by the telemetry cadence so each snapshot observes
// exactly the state the reference engine would capture at that
// boundary; within a batch, terminals advance one after another, and
// within a terminal, event-free stretches collapse into EventGap draws.
//
// Checkpoint boundaries also bound the batches. Subdividing batches is
// harmless — cross-terminal state is commutative (contract note 2) and
// each terminal's per-slot work is identical wherever the batch edges
// fall — so inserting checkpoint boundaries cannot change results. A
// checkpoint captures each terminal's scheduler verbatim (clock, stamp
// counter, pending retransmission timers by tag) plus the preSweep mark
// and the batched threshold-usage accumulator, exactly the state the
// engine itself carries across a batch edge; resume reinstates it and
// re-enters the loop at the boundary.
//
// A cancellable ctx is polled between per-terminal slot chunks, with
// pure stretches additionally capped at ctxCheckSlots slots, so the
// shard stops within a bounded amount of work whether the population is
// wide (many terminals, few slots each) or deep (one terminal, many
// slots). A background context takes the check-free path and the
// stretch cap never engages.
func runShardCols(ctx context.Context, r shardRun) (shardResult, error) {
	cfg, slots := r.cfg, r.slots
	n, terms, err := newShardNetwork(cfg, slots, r.lo, r.hi, r.startD, r.loc)
	if err != nil {
		return shardResult{}, err
	}
	_, isHex := r.loc.(hexLocator)

	every := cfg.Telemetry.SnapshotEvery
	prog := cfg.Telemetry.Progress
	dyn := cfg.Dynamic
	kind, param := n.upd.kind, n.upd.param
	done := ctx.Done()
	width := int64(r.hi - r.lo)
	start := int64(0)
	var frames []telemetry.ShardFrame
	// subEvents counts dispatched sub-slot events across all terminals —
	// the engine schedules no sweep events, so this is directly the
	// reference engine's Processed() minus its slot sweeps.
	var subEvents uint64
	if r.resume != nil {
		if err := restoreShardCore(n, terms, r.resume); err != nil {
			return shardResult{}, err
		}
		start = r.resume.Slot
		frames = restoreFrames(r.resume.Frames)
		subEvents = r.resume.SubEvents
		bind := ackBind(n, terms)
		for i := range terms {
			t := &terms[i]
			sc := &r.resume.Scheds[i]
			t.sched.Restore(des.Time(sc.Now), sc.Seq, sc.Ran, sc.Pending, bind)
			t.preSweep = r.resume.PreSweep[i]
			t.curD = int32(r.resume.CurD[i])
			t.runLen = r.resume.RunLen[i]
		}
	}

	for cur := start; cur < slots; {
		next := slots
		if every > 0 {
			if b := (cur/every + 1) * every; b < next {
				next = b
			}
		}
		if r.every > 0 {
			if b := (cur/r.every + 1) * r.every; b < next {
				next = b
			}
		}
		last := next == slots
		for i := range terms {
			t := &terms[i]
			n.sched = &t.sched
			for s := cur; s < next; {
				if done != nil {
					select {
					case <-done:
						return shardResult{}, ctx.Err()
					default:
					}
				}
				if t.sched.Pending() > 0 || (dyn && s > 0 && s%cfg.ReoptimizeEvery == 0) ||
					(kind == schemeTimer && s-t.lastContact >= param) {
					// Slow slot: run the reference two-phase event path.
					base := des.Time(s) * SlotTicks
					if t.sched.Pending() > 0 {
						subEvents += t.sched.RunBefore(base, t.preSweep)
					}
					t.sched.AdvanceTo(base)
					t.countThreshold(t.threshold, 1, n.metrics)
					n.sweepSlot(t, s)
					if dyn && s > 0 && s%cfg.ReoptimizeEvery == 0 {
						n.reoptimize(t)
					}
					t.preSweep = t.sched.SeqMark()
					if t.sched.Pending() > 0 {
						subEvents += t.sched.RunBefore(base+SlotTicks, t.preSweep)
					}
					s++
					continue
				}
				// Pure stretch: consume event gaps until the stretch
				// ends or the scheduler is armed. It stops short of the
				// next re-optimization slot and of the timer scheme's
				// refresh deadline (which the test above puts beyond s):
				// both are slow slots.
				stop := next
				if dyn {
					if b := (s/cfg.ReoptimizeEvery + 1) * cfg.ReoptimizeEvery; b < stop {
						stop = b
					}
				}
				if kind == schemeTimer {
					if dl := t.lastContact + param; dl < stop {
						stop = dl
					}
				}
				if done != nil && stop-s > ctxCheckSlots {
					stop = s + ctxCheckSlots
				}
				from := s
				callT, moveT := t.callT, t.moveT
				for s < stop {
					gap, called, hit := t.rng.EventGap(callT, moveT, stop-s)
					if dyn {
						// The estimator's float sequence must match the
						// scalar per-slot updates exactly, so event-free
						// slots are replayed one by one — no closed-form
						// decay.
						for k := int64(0); k < gap; k++ {
							t.est.observe(false, false)
						}
					}
					s += gap
					if !hit {
						break
					}
					if called {
						subEvents += n.pageInline(t, des.Time(s)*SlotTicks)
						if dyn {
							t.est.observe(false, true)
						}
						s++
						continue
					}
					// Move event: direction draw, then the scheme's
					// trigger decision, on concrete grid math. The timer
					// scheme never triggers on movement.
					trigger := false
					if isHex {
						h := grid.Hex{Q: int(t.pos.Q), R: int(t.pos.R)}.Neighbor(t.rng.Intn(6))
						t.pos = wire.Cell{Q: int32(h.Q), R: int32(h.R)}
						if kind == schemeDistance {
							trigger = h.Dist(grid.Hex{Q: int(t.center.Q), R: int(t.center.R)}) > t.threshold
						}
					} else {
						l := grid.Line(t.pos.Q).Neighbor(t.rng.Intn(2))
						t.pos = wire.Cell{Q: int32(l)}
						if kind == schemeDistance {
							trigger = l.Dist(grid.Line(t.center.Q)) > t.threshold
						}
					}
					if kind == schemeMovement {
						t.moves++
						trigger = t.moves >= param
					}
					if trigger {
						t.sched.AdvanceTo(des.Time(s) * SlotTicks)
						n.sendUpdate(t)
						t.preSweep = t.sched.SeqMark()
					}
					if dyn {
						t.est.observe(true, false)
					}
					s++
					if trigger && t.sched.Pending() > 0 {
						// An armed ack timer: dispatch what falls due
						// before the next boundary, then fall back to
						// the per-slot path.
						subEvents += t.sched.RunBefore(des.Time(s)*SlotTicks, t.preSweep)
						break
					}
				}
				// The whole stretch ran at one threshold (only
				// reoptimize moves it, never inside a stretch).
				t.countThreshold(t.threshold, s-from, n.metrics)
			}
			if last {
				// Late timers resolve against the terminal's final
				// state, exactly as the reference engine's final drain.
				subEvents += t.sched.Drain()
				t.flushThreshold(n.metrics)
			}
			if k := i + 1; k%colsCohortTerminals == 0 && k < len(terms) {
				// Progress within a batch: slot stays at the batch floor
				// while completed work and events advance.
				prog.Set(r.shard, cur, cur*width+int64(k)*(next-cur), uint64(cur)+subEvents)
			}
		}
		cur = next
		prog.Set(r.shard, cur, cur*width, uint64(cur)+subEvents)
		if every > 0 && (cur%every == 0 || last) {
			frames = append(frames, n.snapshot(cur, subEvents))
		}
		if r.every > 0 && cur%r.every == 0 && !last {
			sc := captureShardCore(n, terms, cur, r.lo, r.hi, frames)
			sc.SubEvents = subEvents
			sc.Scheds = make([]SchedCheckpoint, len(terms))
			sc.PreSweep = make([]uint64, len(terms))
			sc.CurD = make([]int64, len(terms))
			sc.RunLen = make([]int64, len(terms))
			for i := range terms {
				t := &terms[i]
				sc.Scheds[i] = schedCheckpoint(&t.sched)
				sc.PreSweep[i] = t.preSweep
				sc.CurD[i] = int64(t.curD)
				sc.RunLen[i] = t.runLen
			}
			r.emit(sc)
		}
	}

	n.metrics.Events = subEvents
	return shardResult{metrics: finishShard(n, terms, slots), frames: frames}, nil
}

// pageInline is network.page run to completion inline, without scheduling a
// single event: the polling-cycle chain is a per-terminal linear sequence
// of strictly later ticks, so with an empty terminal queue (the caller's
// precondition) executing it synchronously is indistinguishable from the
// event-driven version — the loss draws come in identical chain order,
// pageSuccessAt is stamped with the tick the resolution event would have
// carried, and the return value is exactly the number of events the
// reference engine's chain would have processed, so Metrics.Events still
// matches. Structurally this is page() with each sched.After(τ, step)
// replaced by falling through to step's body and counting the event.
func (n *network) pageInline(t *terminal, base des.Time) uint64 {
	rec := *n.hlrAt(t.id)
	n.callSeq++
	call := n.callSeq
	info := n.partitionFor(rec.threshold)
	ring := n.loc.dist(t.pos, rec.center)
	n.metrics.Calls++
	n.term(t.id).Calls++

	// See page(): the subarea whose polls reach the terminal, or −1 when
	// the registered record cannot contain it.
	target := -1
	if ring < len(info.ringSubarea) {
		target = info.ringSubarea[ring]
	} else {
		n.metrics.FallbackCalls++
	}

	events := uint64(1) // the kickoff event that carries the first cycle
	for j := 0; j < len(info.part); j++ {
		sub := info.part[j]
		cyc := uint8(j + 1)
		if j+1 > 255 {
			cyc = 255
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.metrics.PolledCells += int64(sub.Cells)
		n.term(t.id).PolledCells += int64(sub.Cells)
		n.metrics.PollBytes += int64(sub.Cells * len(n.scratch))
		if j == target && n.pollHeard(t) {
			events++ // the reply-resolution event one tick later
			if n.replyDelivered(t, call) {
				// Cycle j runs at base+1+2j; its reply resolves at +1.
				n.pageSuccessAt(t, j+1, base+des.Time(2+2*j))
				return events
			}
		}
		events++ // the event carrying the next cycle (or the first round)
	}
	for r := 1; ; r++ {
		if r > n.cfg.Faults.PageRetries {
			n.metrics.DroppedCalls++
			return events
		}
		n.metrics.RePolls++
		radius := rec.threshold + r
		cells := n.diskCells(radius)
		cyc := uint8(255)
		if c := len(info.part) + r; c <= 255 {
			cyc = uint8(c)
		}
		poll := wire.Poll{Terminal: t.id, Cell: rec.center, Call: call, Cycle: cyc}
		n.scratch = poll.Encode(n.scratch[:0])
		n.metrics.PolledCells += int64(cells)
		n.term(t.id).PolledCells += int64(cells)
		n.metrics.PollBytes += int64(cells * len(n.scratch))
		if ring <= radius && n.pollHeard(t) {
			events++ // the reply-resolution event one tick later
			if n.replyDelivered(t, call) {
				// Round r runs at base+1+2·len(part)+2(r−1); reply at +1.
				n.pageSuccessAt(t, len(info.part)+r, base+des.Time(2*len(info.part)+2*r))
				return events
			}
		}
		events++ // the event carrying the next round
	}
}
