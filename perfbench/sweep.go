package main

import (
	"fmt"
	"math"
	"time"

	"vpp/internal/hw"
	"vpp/internal/simtest"
)

// The sweep workload: cksim op-stream scenarios, the loop the nightly
// `cksim -seeds` sweep runs. Scenario seeds come from a fixed space
// [1, sweepSpace]; the workload seed picks a window of sweepChunks ×
// sweepChunk consecutive scenario seeds in it (wrapping), run as
// sweepChunks workers of sweepChunk scenarios each. The space holds
// ten seeds that crash cksim (76 is the first) and two whose DSM oracle
// fails (1346, 1886); the window is placed by the workload seed alone,
// never around them.
const (
	sweepSpace  = 3000
	sweepChunk  = 250
	sweepChunks = 6
)

// sweepSeed is the scenario seed of unit i of chunk c for a workload
// seed.
func sweepSeed(seed uint64, chunk, i int) uint64 {
	off := splitmix(seed) % sweepSpace
	return 1 + (off+uint64(chunk*sweepChunk+i))%sweepSpace
}

// sweepFingerprint is what a sweep unit is checked against: the oracle
// verdict, final virtual clock and dispatch-schedule hash.
func sweepFingerprint(r *simtest.Result) string {
	verdict := "ok"
	if r.Failed() {
		verdict = "fail"
	}
	return fmt.Sprintf("%s %d %016x", verdict, r.FinalClock, r.Hash)
}

// sweepCrashing lists the units of a chunk whose scenario seed is
// recorded as crashing the process.
func sweepCrashing(seed uint64, chunk int) ([]int, error) {
	want, err := expectedSweep()
	if err != nil {
		return nil, err
	}
	var out []int
	for i := 0; i < sweepChunk; i++ {
		if want[sweepSeed(seed, chunk, i)] == "crash" {
			out = append(out, i)
		}
	}
	return out, nil
}

func runSweep(w *worker) error {
	var want map[uint64]string
	if !w.spec.Record {
		var err error
		if want, err = expectedSweep(); err != nil {
			return err
		}
	}
	idx := w.units()
	scs := make(map[int]simtest.Scenario, len(idx))
	w.beginSetup()
	for _, i := range idx {
		seed := sweepSeed(w.spec.Seed, w.spec.Chunk, i)
		if w.spec.Record {
			seed = recordSweepSeed(w.spec.Chunk, i)
		}
		scs[i] = simtest.Generate(seed)
	}
	genNs := time.Since(w.start).Nanoseconds()

	w.beginTimed()
	if w.spec.Trace {
		w.add("simtest.generate_ns", float64(genNs))
		w.add("simtest.generated", float64(len(idx)))
	}
	for _, i := range idx {
		sc := scs[i]
		w.starting(i)
		var res *simtest.Result
		if w.spec.Trace {
			res = sweepTraced(w, sc)
		} else {
			res = simtest.Run(sc, nil)
		}
		fp := sweepFingerprint(res)
		if w.spec.Record {
			w.record(i, fmt.Sprintf("%d %s", sc.Seed, fp))
			w.done(i, nil)
			continue
		}
		exp, ok := want[sc.Seed]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("scenario seed %d has no expected fingerprint", sc.Seed)
		case res.Failed():
			f := res.Failures[0]
			reason := fmt.Sprintf("scenario seed %d: %s: %s", sc.Seed, f.Oracle, f.Detail)
			// A recorded oracle failure is known only if a known defect
			// names it.
			if exp == fp && classifyFailure(reason) != nil {
				w.doneKnown(i, reason)
				continue
			}
			err = fmt.Errorf("oracle failure: %s", reason)
		case exp == "crash":
			// A recorded crash that now runs clean and passes every
			// oracle: the known defect no longer reproduces here.
		case exp != fp:
			err = fmt.Errorf("scenario seed %d: fingerprint %q, expected %q", sc.Seed, fp, exp)
		}
		w.done(i, err)
	}
	w.endTimed()
	return nil
}

// sweepTraced runs one scenario through RunCut with a pause hook at the
// end of time, the only public way to reach the scenario's machine, and
// reads its layer counters. The schedule is the same as Run's: the
// fingerprint check still applies.
func sweepTraced(w *worker, sc simtest.Scenario) *simtest.Result {
	var m *hw.Machine
	t0 := time.Now()
	res := simtest.RunCut(sc, nil, 1, math.MaxUint64, func(pm *hw.Machine) { m = pm })
	w.add("simtest.run_ns", float64(time.Since(t0).Nanoseconds()))
	w.add("sim.steps", float64(res.Steps))
	fs := res.FaultStats
	w.add("chaos.faults", float64(fs.Crashes+fs.SignalsDropped+fs.SignalsDuplicated+fs.WritebacksCorrupted+
		fs.FramesDropped+fs.FramesDuplicated+fs.FramesDelayed+fs.WalkErrors+fs.ExecsKilled))
	if m != nil {
		addMachine(w, m, 1)
	}
	return res
}
