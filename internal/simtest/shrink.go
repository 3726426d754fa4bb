package simtest

import "vpp/internal/chaos"

// Shrink greedily reduces a failing scenario to a smaller one that
// still fails, bounded by maxRuns re-executions. The reduction passes,
// in order: delta-debugging over the op stream (drop halves, then
// quarters, and so on), dropping faults one at a time, and switching
// application-kernel mixes off. Every candidate is re-run from scratch
// under the virtual clock, so the whole reduction is deterministic and
// the returned result is the full run of the returned scenario.
//
// Every run is guarded: a panic becomes a PanicResult. A scenario
// that panics shrinks to one that panics with the same message; a
// candidate of any other failing scenario that panics is a different
// defect and is rejected.
func Shrink(sc Scenario, maxRuns int) (Scenario, *Result) {
	best, bestRes := sc, guardedRun(sc)
	if !bestRes.Failed() {
		return best, bestRes
	}
	want := bestRes
	runs := 0
	// try runs c within the budget and adopts it when it still fails
	// the same way.
	try := func(c Scenario) bool {
		if runs >= maxRuns {
			return false
		}
		runs++
		r := guardedRun(c)
		if !sameFailure(want, r) {
			return false
		}
		best, bestRes = c, r
		return true
	}

	// Pass 1: ddmin-lite over the op stream.
	for chunk := (len(best.Ops) + 1) / 2; chunk >= 1 && runs < maxRuns; {
		removed := false
		for start := 0; start+chunk <= len(best.Ops) && runs < maxRuns; {
			c := best
			c.Ops = make([]Op, 0, len(best.Ops)-chunk)
			c.Ops = append(c.Ops, best.Ops[:start]...)
			c.Ops = append(c.Ops, best.Ops[start+chunk:]...)
			if try(c) {
				removed = true // the same start now addresses the next ops
			} else {
				start += chunk
			}
		}
		if chunk > 1 {
			chunk = (chunk + 1) / 2
		} else if !removed {
			break
		}
	}

	// Pass 2: drop faults one at a time. Removing the last CrashKernel
	// fault also clears the crash-family flag so the oracles' crash
	// accounting matches the plan.
	for i := 0; i < len(best.Faults) && runs < maxRuns; {
		c := best
		c.Faults = make([]chaos.Fault, 0, len(best.Faults)-1)
		c.Faults = append(c.Faults, best.Faults[:i]...)
		c.Faults = append(c.Faults, best.Faults[i+1:]...)
		if c.Crash && !hasCrashFault(c.Faults) {
			c.Crash = false
			c.CrashAtUS = 0
		}
		if !try(c) {
			i++
		}
	}

	// Pass 3: switch mixes off one at a time.
	muts := []func(*Scenario){
		func(c *Scenario) { c.Mix.Unix = false },
		func(c *Scenario) { c.Mix.RTK = false },
		func(c *Scenario) { c.Mix.DSM = false },
		func(c *Scenario) { c.Mix.Netboot = false },
	}
	for _, mut := range muts {
		c := best
		mut(&c)
		if !scenarioEqual(c, best) {
			try(c)
		}
	}
	return best, bestRes
}

// sameFailure reports whether a candidate's result got still fails the
// way the original result want did: it fails, it panics exactly when
// want panicked, and then with the same message.
func sameFailure(want, got *Result) bool {
	wantMsg, wantPanic := want.Panic()
	msg, panicked := got.Panic()
	return got.Failed() && panicked == wantPanic && msg == wantMsg
}

// guardedRun runs sc serially, turning a panic into a PanicResult so
// one panicking candidate does not end the whole reduction.
func guardedRun(sc Scenario) (res *Result) {
	defer func() {
		if p := recover(); p != nil {
			res = PanicResult(sc, p)
		}
	}()
	return Run(sc, nil)
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
