package main

import (
	"fmt"
	"time"

	"vpp/internal/exp"
	"vpp/internal/hw"
)

// The fleet workload: the canned 24-pod ckctl fleet plus a rolling
// upgrade on the 2-shard engine. The fleet is canned, so the workload
// seed changes nothing in it.
const (
	fleetChunk  = 24
	fleetShards = 2
	// fleetUpgradeUS is the virtual time RunOrchestrationWorkload starts
	// its rolling upgrade; the traced run pauses there to split launch
	// from upgrade.
	fleetUpgradeUS = 10_000
)

func fleetFingerprint(r exp.OrchestrationResult) string {
	return fmt.Sprintf("migrated=%d blackout=%d/%.3f/%d clock=%d steps=%d",
		r.Migrated, r.BlackoutMin, r.BlackoutMean, r.BlackoutMax, r.FinalClock, r.Steps)
}

func runFleet(w *worker) error {
	var want string
	if !w.spec.Record {
		var err error
		if want, err = expectedFleet(); err != nil {
			return err
		}
	}
	// Warm-up: one untimed fleet.
	w.beginSetup()
	if _, err := exp.RunOrchestrationWorkload(nil, fleetShards); err != nil {
		return fmt.Errorf("warm-up fleet: %w", err)
	}

	w.beginTimed()
	for _, i := range w.units() {
		w.starting(i)
		var res exp.OrchestrationResult
		var err error
		if w.spec.Trace {
			res, err = fleetTraced(w)
		} else {
			res, err = exp.RunOrchestrationWorkload(nil, fleetShards)
		}
		fp := fleetFingerprint(res)
		switch {
		case err != nil:
		case w.spec.Record:
			w.record(i, fp)
		case fp != want:
			err = fmt.Errorf("fleet fingerprint %q, expected %q", fp, want)
		}
		w.done(i, err)
	}
	w.endTimed()
	return nil
}

// fleetTraced splits one fleet at the upgrade start with the public
// pause hook: launch before it, upgrade after. The hook also reads the
// sharded engine's pooled-buffer high-water mark at the cut.
func fleetTraced(w *worker) (exp.OrchestrationResult, error) {
	var m *hw.Machine
	var cut time.Time
	t0 := time.Now()
	res, err := exp.RunOrchestrationWorkloadCut(nil, fleetShards, hw.CyclesFromMicros(fleetUpgradeUS), func(pm *hw.Machine) {
		cut = time.Now()
		m = pm
		if pm.Cluster != nil {
			hi := 0
			for _, ps := range pm.Cluster.PoolStats() {
				hi += ps.ActsCap + ps.SubsCap + ps.OutboxCap
			}
			w.add("sim.pool_highwater", float64(hi))
		}
	})
	end := time.Now()
	if err != nil {
		return res, err
	}
	w.add("fleet.launch_ns", float64(cut.Sub(t0).Nanoseconds()))
	w.add("fleet.upgrade_ns", float64(end.Sub(cut).Nanoseconds()))
	w.add("sim.steps", float64(res.Steps))
	if m != nil {
		addMachine(w, m, 1)
	}
	return res, nil
}
