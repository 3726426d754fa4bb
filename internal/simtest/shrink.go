package simtest

import "vpp/internal/chaos"

// ShrinkStats reports what the prefix-determinism machinery saved
// during one reduction.
type ShrinkStats struct {
	// ProbesRun counts candidates actually re-executed; ProbesSkipped
	// counts candidates accepted without any run because their earliest
	// possible divergence from the current best provably postdates the
	// recorded failure.
	ProbesRun     int
	ProbesSkipped int
	// ChecksSkipped counts per-op kernel-invariant re-checks skipped in
	// executed probes below their judge-from point.
	ChecksSkipped int
	// PrefixCyclesSaved totals the virtual-time prefixes not re-run (one
	// whole prefix per skipped probe) or re-run but not re-judged (one
	// per executed probe with a positive judge-from point).
	PrefixCyclesSaved uint64
}

// Shrink greedily reduces a failing scenario to a smaller one that
// still fails, bounded by maxRuns re-executions. See ShrinkWithStats.
func Shrink(sc Scenario, maxRuns int) (Scenario, *Result) {
	min, res, _ := ShrinkWithStats(sc, maxRuns)
	return min, res
}

// ShrinkWithStats is Shrink plus its savings accounting. The reduction
// passes, in order: delta-debugging over the op stream (drop halves,
// then quarters, and so on), dropping faults one at a time, and
// switching application-kernel mixes off. Every candidate that must be
// re-executed is re-run from scratch under the virtual clock, so the
// whole reduction is deterministic.
//
// The replay snapshot tier's checkpoint for a mid-trace cut is the
// deterministic rebuild recipe — re-run the shared prefix, then
// diverge (see internal/snap). The shrinker exploits the same
// determinism without re-running: every recorded run knows when each
// op started and when the first oracle failure landed, so a candidate
// whose edits only touch ops (or fault windows) that begin after the
// recorded failure must replay the failing prefix byte-for-byte and is
// accepted with no run at all. Candidates that do have to run resume
// judgement from their divergence point: the per-op invariant
// re-checks over the provably-shared prefix are skipped, since that
// prefix already passed them on the run it is shared with.
//
// Candidate probes that execute run with the early-stop option: the
// machine runs in virtual-time chunks and stops as soon as an oracle
// has recorded a failure. Failures land at deterministic virtual
// times, so an early-stopped probe fails if and only if the full run
// fails; the result finally returned is always from a full re-run of
// the winning scenario.
//
// Every run is guarded: a panic becomes a PanicResult. A scenario
// that panics shrinks to one that panics with the same message; a
// candidate of any other failing scenario that panics is a different
// defect and is rejected.
func ShrinkWithStats(sc Scenario, maxRuns int) (Scenario, *Result, ShrinkStats) {
	var stats ShrinkStats
	runs := 0

	best := sc
	bestRes := guardedRun(best, runOpts{record: true})
	if !bestRes.Failed() {
		return best, bestRes, stats
	}
	wantPanic, panicked := bestRes.Panic()
	stillFails := func(r *Result) bool {
		msg, p := r.Panic()
		return r.Failed() && p == panicked && msg == wantPanic
	}

	// Instrumentation for the current best. starts[i] is when op i began
	// (MaxUint64 = not before the run ended); firstFail is when the first
	// oracle fired; both are only trustworthy strictly below validUpTo
	// (an early-stopped probe records nothing past its stop time).
	starts := bestRes.OpStarts
	firstFail := bestRes.FirstFailAt
	validUpTo := bestRes.FinalClock
	if starts == nil {
		validUpTo = 0 // degenerate setup-failure run: no instrumentation
	}

	tryRun := func(c Scenario, judgeFrom uint64) *Result {
		if runs >= maxRuns {
			return nil
		}
		runs++
		stats.ProbesRun++
		if judgeFrom > 0 {
			stats.PrefixCyclesSaved += judgeFrom
		}
		r := guardedRun(c, runOpts{earlyStop: true, record: true, judgeFrom: judgeFrom})
		stats.ChecksSkipped += r.JudgeSkipped
		if stillFails(r) {
			return r
		}
		return nil
	}
	accept := func(c Scenario, r *Result) {
		best, bestRes = c, r
		starts = r.OpStarts
		firstFail = r.FirstFailAt
		validUpTo = r.FinalClock
		if starts == nil {
			validUpTo = 0
		}
	}

	// Pass 1: ddmin-lite over the op stream. Removing ops [start,
	// start+chunk) diverges no earlier than the first start time of any
	// removed or index-shifted op (op addresses derive from the global
	// op index), unless the removal changes which nodes carry swap ops —
	// the one construction-time read of the op stream.
	swapMask := func(s Scenario) uint64 {
		var m uint64
		for _, op := range s.Ops {
			if op.Kind == OpSwap {
				m |= 1 << uint(op.MPM&63)
			}
		}
		return m
	}
	opsDivergence := func(start int) uint64 {
		if starts == nil {
			return 0
		}
		d := validUpTo
		for j := start; j < len(starts); j++ {
			if starts[j] < d {
				d = starts[j]
			}
		}
		return d
	}
	for chunk := (len(best.Ops) + 1) / 2; chunk >= 1; {
		removed := false
		for start := 0; start+chunk <= len(best.Ops); {
			c := best
			c.Ops = make([]Op, 0, len(best.Ops)-chunk)
			c.Ops = append(c.Ops, best.Ops[:start]...)
			c.Ops = append(c.Ops, best.Ops[start+chunk:]...)
			div := uint64(0)
			if swapMask(c) == swapMask(best) {
				div = opsDivergence(start)
			}
			if firstFail < div {
				// The candidate replays the failing prefix verbatim:
				// accept without running. The surviving shifted ops keep
				// best's recorded start times, all of which are >= div, so
				// clamping validUpTo keeps every later divergence bound
				// honest without re-instrumenting.
				stats.ProbesSkipped++
				stats.PrefixCyclesSaved += firstFail
				best = c
				ns := make([]uint64, 0, len(c.Ops))
				ns = append(ns, starts[:start]...)
				ns = append(ns, starts[start+chunk:]...)
				starts = ns
				if div < validUpTo {
					validUpTo = div
				}
				removed = true
				// Same start now addresses the next ops; don't advance.
			} else if r := tryRun(c, div); r != nil {
				accept(c, r)
				removed = true
			} else {
				start += chunk
			}
			if runs >= maxRuns {
				break
			}
		}
		if runs >= maxRuns {
			break
		}
		if !removed && chunk == 1 {
			break
		}
		if chunk > 1 {
			chunk = (chunk + 1) / 2
		} else if !removed {
			break
		}
	}

	// Pass 2: drop faults one at a time. Removing the last CrashKernel
	// fault also clears the crash-family flag so the oracles' crash
	// accounting matches the plan. A pure window/probability fault
	// cannot act — or draw from the per-shard fault stream — before its
	// window opens, so its removal diverges no earlier than At; crash
	// and kill faults are scheduled as engine events at construction
	// (sequence-number shifts reach the whole run), and removals that
	// change which hook families arm alter construction, so both pin
	// the divergence to 0.
	armFamilies := func(fs []chaos.Fault) (m uint8) {
		for _, f := range fs {
			switch f.Kind {
			case chaos.WalkError:
				m |= 1
			case chaos.DropSignal, chaos.DupSignal:
				m |= 2
			case chaos.CorruptWriteback:
				m |= 4
			case chaos.DropFrame, chaos.DupFrame, chaos.DelayFrame:
				m |= 8
			}
		}
		return
	}
	for i := 0; i < len(best.Faults) && runs < maxRuns; {
		f := best.Faults[i]
		c := best
		c.Faults = make([]chaos.Fault, 0, len(best.Faults)-1)
		c.Faults = append(c.Faults, best.Faults[:i]...)
		c.Faults = append(c.Faults, best.Faults[i+1:]...)
		if c.Crash && !hasCrashFault(c.Faults) {
			c.Crash = false
			c.CrashAtUS = 0
		}
		div := uint64(0)
		if f.Kind != chaos.CrashKernel && f.Kind != chaos.KillRunning &&
			armFamilies(c.Faults) == armFamilies(best.Faults) {
			div = f.At
			if validUpTo < div {
				div = validUpTo
			}
		}
		if firstFail < div {
			stats.ProbesSkipped++
			stats.PrefixCyclesSaved += firstFail
			best = c
			if div < validUpTo {
				validUpTo = div
			}
		} else if r := tryRun(c, div); r != nil {
			accept(c, r)
		} else {
			i++
		}
	}

	// Pass 3: switch mixes off one at a time. Mixes launch at
	// construction, so there is no shared prefix to exploit.
	muts := []func(*Scenario){
		func(c *Scenario) { c.Mix.Unix = false },
		func(c *Scenario) { c.Mix.RTK = false },
		func(c *Scenario) { c.Mix.DSM = false },
		func(c *Scenario) { c.Mix.Netboot = false },
	}
	for _, mut := range muts {
		if runs >= maxRuns {
			break
		}
		c := best
		mut(&c)
		if scenarioEqual(c, best) {
			continue
		}
		if r := tryRun(c, 0); r != nil {
			accept(c, r)
		}
	}

	// Probes may have stopped early or been accepted without running;
	// the reported reduction is always a full run.
	if len(best.Ops) != len(sc.Ops) || len(best.Faults) != len(sc.Faults) || !scenarioEqual(best, sc) {
		bestRes = guardedRun(best, runOpts{})
		if !stillFails(bestRes) {
			// Defensive: prefix determinism says this cannot happen — but
			// never return a "reduction" that passes. Fall back to the
			// original, which the initial run proved failing.
			best = sc
			bestRes = guardedRun(best, runOpts{})
		}
	}
	return best, bestRes, stats
}

// guardedRun runs sc serially, turning a panic into a PanicResult so
// one panicking candidate does not end the whole reduction.
func guardedRun(sc Scenario, opts runOpts) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = PanicResult(sc, p)
		}
	}()
	return runWithOpts(sc, nil, 1, opts)
}

func hasCrashFault(fs []chaos.Fault) bool {
	for _, f := range fs {
		if f.Kind == chaos.CrashKernel {
			return true
		}
	}
	return false
}

// scenarioEqual compares the scalar shape (slices excluded: the mix
// mutations never touch them).
func scenarioEqual(a, b Scenario) bool {
	return a.Seed == b.Seed && a.MPMs == b.MPMs && a.CPUsPerMPM == b.CPUsPerMPM &&
		a.ThreadSlots == b.ThreadSlots && a.MappingSlots == b.MappingSlots &&
		a.HorizonUS == b.HorizonUS && a.Mix == b.Mix && a.Crash == b.Crash &&
		a.CrashAtUS == b.CrashAtUS && a.FaultSeed == b.FaultSeed
}
