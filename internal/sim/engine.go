// Package sim implements the discrete-event simulation engine that drives
// every experiment: a virtual clock and a priority queue of timed,
// cancellable events.
//
// It plays the role the simulation driver plays in the BSC SLURM
// simulator: job submissions, job completions and scheduler passes are all
// events; simulated time jumps from event to event.
package sim

import (
	"context"
	"fmt"
	"time"

	"sdpolicy/internal/telemetry"
)

// Kernel telemetry. RunCtx accumulates locally and publishes once per
// run, so the event loop itself stays free of shared-memory traffic.
var (
	mEvents = telemetry.NewCounter("sim_events_processed_total",
		"Discrete events fired across all simulation runs.")
	mCheckpoints = telemetry.NewCounter("sim_checkpoints_total",
		"Context-cancellation checkpoints polled by RunCtx.")
	mRuns = telemetry.NewCounter("sim_runs_total",
		"Completed RunCtx invocations (including cancelled ones).")
	mRunSeconds = telemetry.NewFloatCounter("sim_run_seconds_total",
		"Wall-clock seconds spent in RunCtx; sim_events_processed_total over it is the event throughput.")
)

// Time is simulated time in seconds since the start of the experiment.
type Time = int64

// Priority orders events that share a timestamp. Lower runs first.
// The ordering mirrors the order slurmctld processes its agenda:
// completions free resources before new submissions are looked at, and the
// scheduler pass runs after the state changes that triggered it.
type Priority int

const (
	// PriEnd is for job completion events.
	PriEnd Priority = iota
	// PriSubmit is for job arrival events.
	PriSubmit
	// PriSched is for scheduler passes.
	PriSched
	// PriStats is for periodic bookkeeping (daily samples, probes).
	PriStats
)

// Event is a handle to a scheduled callback, returned by Schedule so
// callers can cancel or reschedule it. It is a small value (not a
// pointer): event storage lives in an engine-owned slab and is recycled
// through a free list once the event fires or is cancelled, so scheduling
// allocates nothing in steady state. The generation stamp makes stale
// handles detectable: a handle kept past its event's firing never aliases
// a recycled slot. The zero Event is a dead handle.
type Event struct {
	slot int32
	gen  uint32
}

// slot is the slab storage of one scheduled event. `heap` is the event's
// position in the heap, -1 once fired or cancelled. `gen` increments every
// time the slot is released, invalidating outstanding handles.
type slot struct {
	at   Time
	seq  uint64
	fn   func()
	pri  Priority
	heap int32
	gen  uint32
}

// entry is one monomorphic heap element. The ordering keys are stored
// inline so sift comparisons never chase into the slab; only the
// slot-position backlink is updated on moves.
type entry struct {
	at   Time
	seq  uint64
	pri  Priority
	slot int32
}

// before is the total event order: (at, pri, seq). seq is unique, so the
// order is strict and the heap's pop sequence is independent of its
// shape — the 4-ary layout cannot change observable behaviour.
func (a entry) before(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// Engine is a discrete-event simulation loop. The zero value is not
// usable; construct with NewEngine.
type Engine struct {
	now   Time
	seq   uint64
	ran   uint64
	maxT  Time // optional horizon, 0 = none
	heap  []entry
	slots []slot
	free  []int32 // recycled slot indices, LIFO
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Reset rewinds the engine to its initial state while retaining the
// event slab, heap array and free list, so a pooled engine reruns
// without reallocating its queue storage. Any pending callbacks are
// dropped (and their closures released for collection).
func (e *Engine) Reset() {
	for i := range e.slots {
		e.slots[i].fn = nil
		e.slots[i].heap = -1
		e.slots[i].gen++ // invalidate handles that leaked across runs
	}
	e.free = e.free[:0]
	for i := len(e.slots) - 1; i >= 0; i-- {
		e.free = append(e.free, int32(i))
	}
	e.heap = e.heap[:0]
	e.now, e.seq, e.ran, e.maxT = 0, 0, 0, 0
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed returns how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending returns how many events are scheduled and not yet fired.
func (e *Engine) Pending() int { return len(e.heap) }

// SetHorizon stops Run once the clock would pass t (events at exactly t
// still fire). Zero means no horizon.
func (e *Engine) SetHorizon(t Time) { e.maxT = t }

// Schedule registers fn to run at time at with the given same-time
// priority. Scheduling in the past panics: that is always a logic error in
// a discrete-event model.
func (e *Engine) Schedule(at Time, pri Priority, fn func()) Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", at, e.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var idx int32
	if n := len(e.free); n > 0 {
		idx = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		e.slots = append(e.slots, slot{gen: 1})
		idx = int32(len(e.slots) - 1)
	}
	s := &e.slots[idx]
	s.at, s.pri, s.seq, s.fn = at, pri, e.seq, fn
	e.seq++
	e.push(entry{at: s.at, pri: s.pri, seq: s.seq, slot: idx})
	return Event{slot: idx, gen: s.gen}
}

// release returns a slot to the free list, invalidating all outstanding
// handles to it.
func (e *Engine) release(idx int32) {
	s := &e.slots[idx]
	s.fn = nil
	s.heap = -1
	s.gen++
	e.free = append(e.free, idx)
}

// lookup resolves a handle to its live slot, or nil if the event already
// fired, was cancelled, or the handle is zero.
func (e *Engine) lookup(ev Event) *slot {
	if ev.gen == 0 || int(ev.slot) >= len(e.slots) {
		return nil
	}
	s := &e.slots[ev.slot]
	if s.gen != ev.gen || s.heap < 0 {
		return nil
	}
	return s
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event — or the zero Event — is a no-op: the
// generation stamp in the handle detects dead events even after their
// storage has been recycled.
func (e *Engine) Cancel(ev Event) {
	s := e.lookup(ev)
	if s == nil {
		return
	}
	e.remove(s.heap)
	e.release(ev.slot)
}

// Reschedule moves a pending event to a new time, keeping its priority
// and callback. Rescheduling an event that already fired or was
// cancelled panics: its callback is gone (the storage is recycled), so
// there is nothing to move — schedule a fresh event instead.
func (e *Engine) Reschedule(ev Event, at Time) Event {
	s := e.lookup(ev)
	if s == nil {
		panic("sim: reschedule of fired, cancelled or zero event")
	}
	fn, pri := s.fn, s.pri
	e.remove(s.heap)
	e.release(ev.slot)
	return e.Schedule(at, pri, fn)
}

// Step fires the single earliest event. It reports whether an event fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	top := e.heap[0]
	if e.maxT != 0 && top.at > e.maxT {
		return false
	}
	e.pop()
	e.now = top.at
	fn := e.slots[top.slot].fn
	e.release(top.slot)
	e.ran++
	fn()
	return true
}

// Run fires events until none remain (or the horizon is reached).
func (e *Engine) Run() {
	for e.Step() {
	}
}

// push inserts an entry into the 4-ary min-heap.
func (e *Engine) push(it entry) {
	e.heap = append(e.heap, it)
	e.siftUp(len(e.heap) - 1)
}

// pop removes the minimum entry (heap[0]).
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 0 {
		e.siftDown(0)
	}
}

// remove deletes the entry at heap position i.
func (e *Engine) remove(i int32) {
	n := len(e.heap) - 1
	if int(i) == n {
		e.heap = e.heap[:n]
		return
	}
	e.heap[i] = e.heap[n]
	e.heap = e.heap[:n]
	// The moved entry may need to go either way relative to position i.
	if !e.siftDown(int(i)) {
		e.siftUp(int(i))
	}
}

func (e *Engine) siftUp(i int) {
	it := e.heap[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !it.before(e.heap[parent]) {
			break
		}
		e.heap[i] = e.heap[parent]
		e.slots[e.heap[i].slot].heap = int32(i)
		i = parent
	}
	e.heap[i] = it
	e.slots[it.slot].heap = int32(i)
}

// siftDown moves heap[i] down to its place; it reports whether the entry
// moved.
func (e *Engine) siftDown(i int) bool {
	it := e.heap[i]
	n := len(e.heap)
	start := i
	for {
		first := i<<2 + 1 // leftmost child
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.heap[c].before(e.heap[min]) {
				min = c
			}
		}
		if !e.heap[min].before(it) {
			break
		}
		e.heap[i] = e.heap[min]
		e.slots[e.heap[i].slot].heap = int32(i)
		i = min
	}
	e.heap[i] = it
	e.slots[it.slot].heap = int32(i)
	return i != start
}

// DefaultCheckpoint is the event interval at which RunCtx first polls
// the context when the caller passes 0. With adaptive cadence the
// interval then adjusts itself toward checkpointTarget wall-clock time
// between polls, so cancellation latency stays bounded in real time no
// matter how cheap or expensive individual events are.
const DefaultCheckpoint = 64

// Adaptive cadence bounds: the interval doubles while checkpoints
// arrive faster than checkpointTarget/2 and halves when they lag past
// 2*checkpointTarget, clamped to [DefaultCheckpoint, maxCheckpoint].
// The cadence only affects when ctx is polled — never simulation state —
// so adapting it cannot change simulation output.
const (
	checkpointTarget = time.Millisecond
	maxCheckpoint    = 8192
)

// RunCtx fires events like Run but checkpoints ctx periodically: once
// the context is cancelled the loop stops at the next checkpoint and
// returns the context's error, leaving the partially simulated state
// behind. A nil return means the event queue drained (or the horizon
// was reached) normally.
//
// every fixes the checkpoint interval in events; 0 selects an adaptive
// cadence that starts at DefaultCheckpoint and adjusts toward roughly
// one context poll per millisecond of wall-clock time.
func (e *Engine) RunCtx(ctx context.Context, every uint64) error {
	adaptive := every == 0
	if adaptive {
		every = DefaultCheckpoint
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	start := time.Now()
	startRan := e.ran
	checkpoints := uint64(0)
	defer func() {
		fired := e.ran - startRan
		mEvents.Add(fired)
		mCheckpoints.Add(checkpoints)
		mRuns.Inc()
		mRunSeconds.Add(time.Since(start).Seconds())
	}()
	last := start
	next := e.ran + every
	for e.Step() {
		if e.ran >= next {
			checkpoints++
			if err := ctx.Err(); err != nil {
				return err
			}
			if adaptive {
				nowT := time.Now()
				took := nowT.Sub(last)
				last = nowT
				if took < checkpointTarget/2 && every < maxCheckpoint {
					every *= 2
				} else if took > 2*checkpointTarget && every > DefaultCheckpoint {
					every /= 2
				}
			}
			next = e.ran + every
		}
	}
	return nil
}
