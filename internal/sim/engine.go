// Package sim provides a deterministic discrete-virtual-time execution
// engine for the V++ Cache Kernel reproduction.
//
// The engine multiplexes many simulated execution contexts (Coros) over a
// single OS thread of control: exactly one coroutine runs at any instant,
// and the engine always resumes the runnable coroutine whose processor
// clock is furthest behind. This yields a deterministic, serializable
// interleaving of the simulated multiprocessor without any locking in the
// simulated kernel code, mirroring how the real Cache Kernel limited
// parallelism to one MPM.
//
// Time is measured in processor cycles. Clocks belong to simulated CPUs;
// a coroutine advances whichever clock it is currently dispatched on, so a
// thread migrating between CPUs naturally accumulates time on each.
//
// Host-side scheduling is O(log n) in the number of runnable coroutines:
// the ready set is a min-heap keyed by (clock, id) and finished
// coroutines are dropped from the engine entirely. Each coroutine is a
// runtime coroutine (iter.Pull, see coro.go): Run resumes it with a
// direct switch that bypasses the Go scheduler, and a yielding coroutine
// whose next scheduling decision is itself simply keeps running. All of
// this changes only host data structures; the scheduling decisions
// themselves — which coroutine runs at which virtual time — are
// bit-identical to the original linear-scan engine (the determinism
// golden in internal/exp pins this).
package sim

import (
	"errors"
	"fmt"
	"math"
)

// Clock is a processor-local virtual clock measured in cycles.
// The hardware layer creates one Clock per simulated CPU.
type Clock struct {
	name string
	now  uint64
	san  sanClockState // shard-ownership tag; empty unless built with -tags cksan
}

// NewClock returns a clock starting at cycle 0.
func NewClock(name string) *Clock { return &Clock{name: name} }

// Now reports the clock's current cycle count.
func (c *Clock) Now() uint64 { return c.now }

// AdvanceTo moves the clock forward to cycle t; it never moves backward.
func (c *Clock) AdvanceTo(t uint64) {
	if t > c.now {
		c.now = t
	}
}

// Name reports the clock's name (its CPU's name, conventionally).
func (c *Clock) Name() string { return c.name }

// Coro is a simulated execution context: a thread of control that runs on
// whichever Clock it is dispatched to. Coros are created parked; the kernel
// layer unparks a coro on a CPU clock to "dispatch" it.
type Coro struct {
	name     string
	id       uint64
	eng      *Engine
	fn       func(*Ctx)
	ctx      Ctx
	next     func() (struct{}, bool) // resumes the body; nil until startCoro
	clock    *Clock
	runnable bool
	done     bool
	// fresh marks an activation: the coroutine was unparked and has not
	// been dispatched since. Only activation dispatches are traced and
	// counted in Steps — later re-slices of the same run (grid-boundary
	// yields) are engine pacing, invisible to the simulated kernel.
	fresh bool

	// band/gid order this coro's dispatches against entities on other
	// shards at equal virtual times (see event.band): band 0 carries
	// the construction-time id, band 1 a barrier-assigned global rank.
	// Serial engines only use band 0 with gid == id.
	band uint8
	gid  uint64
}

// Name reports the coro's name.
func (co *Coro) Name() string { return co.name }

// Done reports whether the coro's body has returned.
func (co *Coro) Done() bool { return co.done }

// Runnable reports whether the coro is currently eligible to run.
func (co *Coro) Runnable() bool { return co.runnable && !co.done }

// Clock returns the clock the coro is (or was last) dispatched on.
func (co *Coro) Clock() *Clock { return co.clock }

// Ctx is the handle a running coroutine uses to interact with the engine.
// A Ctx is only valid inside its own coroutine.
type Ctx struct {
	co      *Coro
	horizon uint64
	suspend func(struct{}) bool // iter.Pull's yield: switches back to Run
}

// event is a scheduled callback. Events run in the engine's own context
// (never inside a coroutine); they typically raise interrupts or unpark
// coros.
//
// band orders events across shard timelines at equal virtual times
// without a shared runtime counter (see cluster.go): band 0 is
// construction time (ids from the cluster-wide constructor counter, or
// the engine counter when standalone — today's serial order, byte for
// byte), band 1 is runtime registrations that have been assigned a
// global rank at an epoch barrier, band 2 is this-epoch shard-local
// registrations not yet ranked. Serial engines only ever use band 0.
type event struct {
	at   uint64
	seq  uint64
	band uint8
	fn   func()
}

// Engine owns all coroutines, clocks and pending events of one simulation.
type Engine struct {
	coros   []*Coro  // live (not finished) coroutines, creation order
	runq    coroHeap // runnable coroutines keyed by (clock, id)
	events  eventHeap
	seq     uint64
	current *Coro
	now     uint64 // time of the most recently scheduled entity
	until   uint64 // bound of the Run call in progress
	steps   uint64 // raw scheduling decisions (MaxSteps guard)
	sched   uint64 // schedule points: event executions + activations
	schedAt uint64 // latest schedule-point time seen so far (monotone)
	// MaxSteps bounds engine scheduling decisions as a runaway guard.
	// Zero means no limit.
	MaxSteps uint64

	// TraceDispatch, when non-nil, is called with the coroutine name and
	// virtual dispatch time on every activation — a dispatch of a
	// coroutine that was unparked since it last ran. Preemption
	// re-slices are not traced: they depend on which other entities
	// share the engine, while activations are a property of the
	// simulated schedule itself (and are therefore identical across
	// shard counts). The determinism regression harness hashes the
	// resulting trace. In a cluster, the per-shard field stays nil and
	// the cluster emits the merged trace instead.
	TraceDispatch func(name string, at uint64)

	// Sharded-mode state (nil/zero for a standalone serial engine).
	cluster *Cluster
	shard   int
	// logging records every action (event execution, coroutine
	// dispatch) and every runtime registration so the cluster can
	// replay the exact serial global order at each epoch barrier.
	logging bool
	acts    []actRec
	subs    []subRec
	outbox  []crossMsg
	// evFree pools event records when the log does not retain them.
	evFree  []*event
	evBlock []event // unused tail of newEvent's current allocation block
}

// Action and registration log records (sharded mode only).
const (
	actEvent    = 0 // an event execution
	actDispatch = 1 // an activation: first dispatch since unpark
	actReslice  = 2 // a continuation dispatch after a grid-boundary yield

	subCoro  = 0 // a NewCoro whose dispatch rank is assigned at the barrier
	subEvent = 1 // a shard-local ScheduleAt re-ranked at the barrier
	subCross = 2 // a cross-shard message injected at the barrier
)

// actRec is one logged action: an event execution or a dispatch
// decision (activation or re-slice — every decision is logged, because
// the barrier merge replays the serial engine's complete decision
// sequence; only activations are traced). sub is the index into the
// engine's subs log where this action's registrations begin (they end
// where the next action's begin).
type actRec struct {
	at   uint64
	co   *Coro
	ev   *event
	sub  int32
	kind uint8
}

// subRec is one logged runtime registration, ranked in merged global
// order at the epoch barrier.
type subRec struct {
	kind uint8
	co   *Coro
	ev   *event
	msg  int32
}

// crossMsg is a scheduled effect bound for another shard, delivered at
// the epoch barrier with its virtual time intact.
type crossMsg struct {
	at  uint64
	dst *Engine
	fn  func()
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the engine's current virtual time. From inside a running
// coroutine this is that coroutine's own clock — the engine-level `now`
// only advances at schedule points, so the running entity's clock is
// the honest current time (and, unlike the schedule-point clock, it
// does not depend on how preemption sliced other entities' runs).
// Outside any coroutine it is the time of the most recent schedule
// point, a global lower bound: no future activity occurs before it.
func (e *Engine) Now() uint64 {
	if cur := e.current; cur != nil {
		return cur.clock.now
	}
	return e.now
}

// Steps reports the number of schedule points so far: event executions
// plus coroutine activations. Unlike the raw decision count (which
// includes horizon-preemption re-slices and is what MaxSteps guards),
// this is a property of the simulated schedule and is identical across
// shard counts.
func (e *Engine) Steps() uint64 { return e.sched }

// SchedTime reports the latest schedule-point time (event execution or
// activation) seen so far. Unlike Now, which preemption re-slices also
// advance, this is a property of the simulated schedule and therefore
// identical across shard counts; the determinism fingerprints use it as
// the final clock.
func (e *Engine) SchedTime() uint64 { return e.schedAt }

// SanEnabled reports whether this binary was built with the cksan
// runtime ownership sanitizer (-tags cksan). Tools use it to refuse
// sanitizer runs on unsanitized binaries.
func SanEnabled() bool { return sanEnabled }

// Shard reports the engine's shard index within its cluster (0 when
// standalone).
func (e *Engine) Shard() int { return e.shard }

// nextTime reports the virtual time of the engine's next pending entity
// (runnable coroutine or event), or MaxUint64 when quiescent. Only
// called between epochs, when no coroutine of the engine is executing.
func (e *Engine) nextTime() uint64 {
	_, t := e.peekRunnable()
	if len(e.events) > 0 && e.events[0].at < t {
		t = e.events[0].at
	}
	return t
}

// Live reports the number of coroutines the engine still tracks
// (finished coroutines are removed).
func (e *Engine) Live() int { return len(e.coros) }

// nextSeq draws the next construction-order id: the cluster-wide
// constructor counter while a cluster is being built (so ids across
// shards reproduce the single-engine creation order exactly), the
// engine-local counter otherwise.
func (e *Engine) nextSeq() uint64 {
	if c := e.cluster; c != nil && !c.running {
		c.ctorSeq++
		return c.ctorSeq
	}
	e.seq++
	return e.seq
}

// NewCoro creates a parked coroutine that will execute fn when first
// dispatched. The body must only interact with the engine through ctx.
func (e *Engine) NewCoro(name string, fn func(*Ctx)) *Coro {
	id := e.nextSeq()
	co := &Coro{
		name: name,
		id:   id,
		eng:  e,
		fn:   fn,
		gid:  id,
	}
	co.ctx.co = co
	if c := e.cluster; c != nil && c.running {
		// Runtime creation in a cluster: the global dispatch rank is
		// assigned when the creating action is merged at the barrier.
		co.band = 1
		co.gid = 0
		if e.logging {
			//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
			e.subs = append(e.subs, subRec{kind: subCoro, co: co})
		}
	}
	e.coros = append(e.coros, co)
	return co
}

// UnparkOn makes co runnable on the given clock. It is the dispatch
// primitive: the kernel layer calls it when placing a thread on a CPU.
// Calling it for an already-runnable or finished coro panics, as that
// indicates a kernel scheduling bug.
func (e *Engine) UnparkOn(co *Coro, clock *Clock) {
	if co.eng != e {
		panic(fmt.Sprintf("sim: unpark of coro %q on a foreign engine (cross-shard dispatch)", co.name))
	}
	if co.done {
		panic(fmt.Sprintf("sim: unpark of finished coro %q", co.name))
	}
	if co.runnable {
		panic(fmt.Sprintf("sim: unpark of runnable coro %q", co.name))
	}
	if clock == nil {
		panic("sim: unpark with nil clock")
	}
	e.sanAdoptClock(clock)
	co.clock = clock
	co.runnable = true
	co.fresh = true
	e.runq.push(coroEntry{at: clock.now, co: co})
	// A newly runnable coroutine may be more urgent than the currently
	// executing one: shrink the current horizon so it yields at its next
	// charge point.
	if cur := e.current; cur != nil && cur != co && clock.now < cur.ctx.horizon {
		cur.ctx.horizon = clock.now
	}
}

// ScheduleAt registers fn to run at virtual time t in engine context.
// Events at equal times run in registration order.
func (e *Engine) ScheduleAt(t uint64, fn func()) {
	e.scheduleEvent(t, fn)
	// The new event may precede the running coroutine's current horizon.
	if cur := e.current; cur != nil && t < cur.ctx.horizon {
		cur.ctx.horizon = t
	}
}

// scheduleEvent registers an event without touching the running
// coroutine's horizon.
func (e *Engine) scheduleEvent(t uint64, fn func()) {
	ev := e.newEvent()
	ev.at, ev.fn = t, fn
	if c := e.cluster; c != nil && c.running {
		// Runtime registration in a cluster: shard-local order now,
		// global rank at the barrier.
		e.seq++
		ev.band, ev.seq = 2, e.seq
		if e.logging {
			//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
			e.subs = append(e.subs, subRec{kind: subEvent, ev: ev})
		}
	} else {
		ev.band, ev.seq = 0, e.nextSeq()
	}
	e.events.push(ev)
}

// ScheduleAfter registers fn to run d cycles after the engine's current
// global time.
func (e *Engine) ScheduleAfter(d uint64, fn func()) {
	e.ScheduleAt(e.now+d, fn)
}

// ScheduleCrossAt registers fn to run at virtual time t on dst, which
// may be another shard of the same cluster. Same-engine (or
// construction-time) registrations are ordinary events; a runtime
// cross-shard registration is queued in the source shard's outbox and
// injected into dst at the epoch barrier, so t must lie beyond the
// current epoch — which the cluster's latency bound (Cluster.Bound)
// guarantees for every modeled interconnect.
//
// Unlike ScheduleAt, a cross registration never shrinks the sending
// coroutine's slice horizon: the outbox path physically cannot (the
// sender keeps running while the message is in flight), so the direct
// path must not either, or the sender's yield/interrupt-poll points —
// and everything downstream of them — would depend on whether the
// destination happens to share the sender's shard.
func (e *Engine) ScheduleCrossAt(dst *Engine, t uint64, fn func()) {
	c := e.cluster
	if dst == e || c == nil || !c.running {
		dst.scheduleEvent(t, fn)
		return
	}
	if c.lookahead == math.MaxUint64 {
		panic("sim: cross-shard event with no registered latency bound")
	}
	if t <= e.until {
		panic(fmt.Sprintf("sim: cross-shard event at %d inside the current epoch (bound %d)", t, e.until))
	}
	//ckvet:allow poolpath sanctioned growth point of the cross-shard outbox; reset by resetLogs at the epoch barrier
	e.outbox = append(e.outbox, crossMsg{at: t, dst: dst, fn: fn})
	//ckvet:allow poolpath sanctioned growth point of the registration log; reset by resetLogs at the epoch barrier
	e.subs = append(e.subs, subRec{kind: subCross, msg: int32(len(e.outbox) - 1)})
}

const evBlockSize = 16

// newEvent draws an event record from the pool (executed events are
// recycled: immediately when logging is off, at the epoch barrier once
// the action log is done with them when logging is on). An empty pool
// hands out records from blocks of evBlockSize, one allocation each.
func (e *Engine) newEvent() *event {
	if n := len(e.evFree); n > 0 {
		ev := e.evFree[n-1]
		e.evFree = e.evFree[:n-1]
		return ev
	}
	if len(e.evBlock) == 0 {
		e.evBlock = make([]event, evBlockSize)
	}
	ev := &e.evBlock[0]
	e.evBlock = e.evBlock[1:]
	return ev
}

// freeEvent returns an executed event to the pool: on the non-logging
// path right after it fires, on the logging path from resetLogs at the
// epoch barrier (the action log references fired events until then).
func (e *Engine) freeEvent(ev *event) {
	ev.fn = nil
	//ckvet:allow poolpath the pool's own refill point, drained by newEvent
	e.evFree = append(e.evFree, ev)
}

// resetLogs clears the per-epoch logs for reuse and recycles every
// event the action log retained. Only the epoch barrier may call it:
// that is the one point where nothing can still reference a fired
// event — the merge's rank writes into fired events are done, and
// cross-injected events live in destination heaps, not in any log.
func (e *Engine) resetLogs() {
	for i := range e.acts {
		if e.acts[i].kind == actEvent {
			e.freeEvent(e.acts[i].ev)
		}
	}
	// Zero before truncating so the retained arrays do not pin coros,
	// events or closures beyond the epoch that logged them.
	clear(e.acts)
	e.acts = e.acts[:0]
	clear(e.subs)
	e.subs = e.subs[:0]
	clear(e.outbox)
	e.outbox = e.outbox[:0]
}

// ErrMaxSteps reports that Run stopped because the step guard tripped.
var ErrMaxSteps = errors.New("sim: exceeded MaxSteps scheduling decisions")

// gridQuantum is the slice grid: a dispatched coroutine runs until its
// clock crosses the next multiple of gridQuantum (or it parks, or its
// horizon is shrunk by an unpark or event it issued itself). Slice
// boundaries are therefore intrinsic to each coroutine's own charge
// trajectory — never derived from which other entities happen to share
// the engine — which is what makes the schedule identical under any
// sharding of the entities: the engine merely merges intrinsic slices,
// events and activations by (time, id), and that merge commutes with
// partitioning. The grid also bounds how long a non-yielding loop can
// hold the engine, keeping it responsive to MaxSteps.
const gridQuantum = 1 << 16

// Run executes the simulation until no coroutine is runnable and no event
// is pending, or until the next entity's time exceeds until (pass
// math.MaxUint64 for no bound). It returns ErrMaxSteps if the step guard
// trips.
func (e *Engine) Run(until uint64) error {
	e.until = until
	for {
		if e.MaxSteps != 0 && e.steps >= e.MaxSteps {
			return ErrMaxSteps
		}
		e.steps++

		co, coTime := e.peekRunnable()
		evTime := uint64(math.MaxUint64)
		if len(e.events) > 0 {
			evTime = e.events[0].at
		}

		switch {
		case co == nil && evTime == math.MaxUint64:
			return nil
		case evTime <= coTime:
			if evTime > until {
				return nil
			}
			e.runEvent(e.events.pop())
			// Batched drain: run consecutive due events without
			// re-entering the full scheduling decision, for as long as
			// the cheap run-queue bound proves the next event still
			// precedes every runnable coroutine. Stale heap keys only
			// under-estimate a clock (clocks move forward), so the
			// bound is conservative: a miss bounces to the full
			// decision above, never reorders.
			for len(e.events) > 0 {
				next := e.events[0]
				if next.at > until {
					break
				}
				if len(e.runq) > 0 && next.at > e.runq[0].at {
					break
				}
				if e.MaxSteps != 0 && e.steps >= e.MaxSteps {
					return ErrMaxSteps
				}
				e.steps++
				e.runEvent(e.events.pop())
			}
		default:
			if coTime > until {
				return nil
			}
			e.dispatch(co, coTime)
			e.resumeCoro(co)
		}
	}
}

// runEvent executes one due event, logging and recycling as the mode
// requires.
func (e *Engine) runEvent(ev *event) {
	e.now = ev.at
	e.sched++
	if ev.at > e.schedAt {
		e.schedAt = ev.at
	}
	if e.logging {
		//ckvet:allow poolpath sanctioned growth point of the action log; reset by resetLogs at the epoch barrier
		e.acts = append(e.acts, actRec{at: ev.at, ev: ev, sub: int32(len(e.subs)), kind: actEvent})
		ev.fn()
		return
	}
	ev.fn()
	e.freeEvent(ev)
}

// peekRunnable returns the runnable coroutine with the smallest
// (clock, id) key without removing it, or (nil, MaxUint64) if none.
// Stale heap keys — a queued coroutine whose clock moved because it
// shares the clock with another — are repaired lazily here, so the
// reported minimum is always computed over live clock values, exactly
// as the original linear scan did.
func (e *Engine) peekRunnable() (*Coro, uint64) {
	for len(e.runq) > 0 {
		ent := e.runq[0]
		co := ent.co
		if co.done || !co.runnable {
			// Defensive: the engine never leaves such entries behind,
			// but discarding keeps the heap an over-approximation.
			e.runq.pop()
			continue
		}
		if now := co.clock.now; now != ent.at {
			// Clocks only move forward; re-key at the live value.
			e.runq.pop()
			e.runq.push(coroEntry{at: now, co: co})
			continue
		}
		return co, ent.at
	}
	return nil, math.MaxUint64
}

// horizonFor computes how far a coroutine dispatched at coTime may run
// before yielding: the next absolute gridQuantum boundary. The horizon
// deliberately ignores other entities' clocks — capping a slice by a
// neighbour's position would make the yield point (and with it the
// interleaving of side effects at overlapping clock ranges) depend on
// which entities share the engine, breaking shard-count invariance.
// Causality does not need entity capping: any interaction the running
// coroutine initiates (an unpark, a scheduled event) shrinks its own
// horizon at the interaction point, which is intrinsic to its code.
func (e *Engine) horizonFor(coTime uint64) uint64 {
	return coTime - coTime%gridQuantum + gridQuantum
}

// pickSelf evaluates the next scheduling decision from inside a
// yielding coroutine co. If that decision resumes co itself it performs
// the dispatch and reports true, so co keeps running without a switch.
// For any other decision — another coroutine, a due event, quiescence,
// the run bound, the step guard — it mutates nothing and reports false:
// the yielder switches back to Run, which re-evaluates identically.
func (e *Engine) pickSelf(co *Coro) bool {
	if e.MaxSteps != 0 && e.steps >= e.MaxSteps {
		return false
	}
	next, coTime := e.peekRunnable()
	if next != co || coTime > e.until {
		return false
	}
	if len(e.events) > 0 && e.events[0].at <= coTime {
		return false
	}
	e.steps++
	e.dispatch(co, coTime)
	return true
}

// dispatch pops co, the run queue's head at coTime, and gives it a
// fresh horizon.
func (e *Engine) dispatch(co *Coro, coTime uint64) {
	e.runq.pop()
	co.ctx.horizon = e.horizonFor(coTime)
	e.now = coTime
	e.logDispatch(co, coTime)
}

// logDispatch records one dispatch decision. An activation (first
// dispatch since unpark) is a schedule point: it is counted, traced,
// and advances SchedTime. Re-slices are logged too when sharded — the
// barrier merge replays the complete decision sequence, and with
// intrinsic slice boundaries that sequence is identical across shard
// counts — but they are not schedule points.
func (e *Engine) logDispatch(co *Coro, coTime uint64) {
	kind := uint8(actReslice)
	if co.fresh {
		co.fresh = false
		kind = actDispatch
		e.sched++
		if coTime > e.schedAt {
			e.schedAt = coTime
		}
		if e.TraceDispatch != nil {
			e.TraceDispatch(co.name, coTime)
		}
	}
	if e.logging {
		//ckvet:allow poolpath sanctioned growth point of the action log; reset by resetLogs at the epoch barrier
		e.acts = append(e.acts, actRec{at: coTime, co: co, sub: int32(len(e.subs)), kind: kind})
	}
}

// resumeCoro runs co until it yields back to Run or finishes. While it
// runs it may keep going across any number of its own re-dispatches
// (pickSelf); exactly one coroutine is ever active, so engine state
// needs no locking. A panic in the body propagates out of Run.
func (e *Engine) resumeCoro(co *Coro) {
	e.current = co
	if co.next == nil {
		e.startCoro(co)
	}
	co.next()
	e.current = nil
}

// removeCoro drops a finished coroutine from the live set, preserving
// creation order. Called from the finishing coroutine's body while Run
// waits for it to switch back, so no synchronization is needed.
func (e *Engine) removeCoro(co *Coro) {
	for i, c := range e.coros {
		if c == co {
			copy(e.coros[i:], e.coros[i+1:])
			e.coros[len(e.coros)-1] = nil
			e.coros = e.coros[:len(e.coros)-1]
			return
		}
	}
}

// yield suspends the calling coroutine and returns control to the
// scheduler; the coroutine resumes (with a fresh horizon) when next
// scheduled. When the next scheduling decision is the yielder itself it
// simply keeps running; every other decision switches back to Run.
func (ctx *Ctx) yield() {
	co := ctx.co
	e := co.eng
	if co.runnable {
		e.runq.push(coroEntry{at: co.clock.now, co: co})
	}
	if e.pickSelf(co) {
		return
	}
	ctx.suspend(struct{}{})
}

// Advance charges cycles cycles to the coroutine's current clock, yielding
// to the engine if another entity is now more urgent. This is the
// fundamental cost-charging primitive: every simulated action calls it.
func (ctx *Ctx) Advance(cycles uint64) {
	c := ctx.co.clock
	c.now += cycles
	if c.now > ctx.horizon {
		ctx.yield()
	}
}

// Now reports the coroutine's current clock time.
func (ctx *Ctx) Now() uint64 { return ctx.co.clock.now }

// Coro returns the coroutine the context belongs to.
func (ctx *Ctx) Coro() *Coro { return ctx.co }

// Engine returns the owning engine.
func (ctx *Ctx) Engine() *Engine { return ctx.co.eng }

// Park suspends the calling coroutine until another entity unparks it.
// On resume, the coroutine's clock (which may have been rebound by the
// unparker) is advanced to at least the engine's global time, modeling a
// CPU that was idle until the wakeup.
func (ctx *Ctx) Park() {
	co := ctx.co
	co.runnable = false
	ctx.yield()
	co.clock.AdvanceTo(co.eng.now)
}

// Reschedule forces a yield without charging time, letting equally urgent
// entities interleave at a known point.
func (ctx *Ctx) Reschedule() { ctx.yield() }

// coroEntry is a run-queue element; at is the coroutine's clock value
// when queued (repaired lazily if the clock moves while queued).
type coroEntry struct {
	at uint64
	co *Coro
}

// coroHeap is a min-heap of runnable coroutines ordered by (at, id) —
// the same "smallest clock, creation order breaks ties" rule the
// original linear scan implemented.
type coroHeap []coroEntry

func coroLess(a, b coroEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.co.id < b.co.id
}

func (h *coroHeap) push(ent coroEntry) {
	*h = append(*h, ent)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if coroLess((*h)[i], (*h)[p]) {
			(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
			i = p
		} else {
			break
		}
	}
}

func (h *coroHeap) pop() coroEntry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = coroEntry{}
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && coroLess(old[l], old[m]) {
			m = l
		}
		if r < n && coroLess(old[r], old[m]) {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// eventHeap is a min-heap of events ordered by (at, seq).
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if less((*h)[i], (*h)[p]) {
			(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
			i = p
		} else {
			break
		}
	}
}

func (h *eventHeap) pop() *event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = nil
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && less(old[l], old[m]) {
			m = l
		}
		if r < n && less(old[r], old[m]) {
			m = r
		}
		if m == i {
			break
		}
		old[i], old[m] = old[m], old[i]
		i = m
	}
	return top
}

// less orders events by (at, band, seq). Bands only separate at equal
// times in sharded mode, where they reproduce the serial registration
// order: construction (0) before prior-epoch runtime ranks (1) before
// this-epoch shard-local registrations (2) — each band's counter is
// itself monotone in serial registration order. A serial engine uses
// band 0 throughout, so this is exactly the historical (at, seq) rule.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.band != b.band {
		return a.band < b.band
	}
	return a.seq < b.seq
}

// reheap restores the event heap invariant after the barrier re-ranks
// pending events in place.
func (h eventHeap) reheap() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		j := i
		for {
			l, r := 2*j+1, 2*j+2
			m := j
			if l < n && less(h[l], h[m]) {
				m = l
			}
			if r < n && less(h[r], h[m]) {
				m = r
			}
			if m == j {
				break
			}
			h[j], h[m] = h[m], h[j]
			j = m
		}
	}
}
