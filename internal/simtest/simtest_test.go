package simtest

import (
	"reflect"
	"strings"
	"testing"
)

// fixedSeeds spans the generator's scenario families: plain unixemu
// boots, multi-MPM topologies with signal faults, crash-recovery runs,
// real-time mixes, distributed shared memory on three modules, netboot,
// and the swap/echo combination that once exposed the cross-module
// frame-grant collision. Every seed must pass every oracle.
var fixedSeeds = []uint64{3, 17, 29, 43, 44, 47, 48, 52, 58, 61}

func TestFixedSeeds(t *testing.T) {
	for _, seed := range fixedSeeds {
		r := RunSeed(seed)
		if r.Failed() {
			t.Errorf("seed %d failed:\n%s", seed, r.Fingerprint())
		}
	}
}

// TestCksimShortSeed is the per-PR continuous-integration entry point:
// one short scenario, also run under the race detector and with the
// ckinvariants build tag (which re-checks the structural invariants on
// every Cache Kernel call exit).
func TestCksimShortSeed(t *testing.T) {
	r := RunSeed(52)
	if r.Failed() {
		t.Fatalf("seed 52 failed:\n%s", r.Fingerprint())
	}
	if r.Dispatches == 0 || r.Steps == 0 {
		t.Fatalf("seed 52 ran nothing: dispatches=%d steps=%d", r.Dispatches, r.Steps)
	}
}

// TestRunDeterminism asserts bit-reproducibility: the same seed run
// twice produces byte-identical fingerprints (schedule hash, step and
// dispatch counts, final virtual clock, failures).
func TestRunDeterminism(t *testing.T) {
	for _, seed := range []uint64{3, 29, 48, 61} {
		a, b := RunSeed(seed), RunSeed(seed)
		if a.Fingerprint() != b.Fingerprint() {
			t.Errorf("seed %d diverged:\n--- first\n%s\n--- second\n%s",
				seed, a.Fingerprint(), b.Fingerprint())
		}
	}
}

// failingScenario returns a scenario that deterministically fails: seed
// 3's workload with the horizon cut to 2 ms, long before the unixemu
// services can finish, so the conservation and op oracles fire.
func failingScenario() Scenario {
	sc := Generate(3)
	sc.HorizonUS = 2000
	return sc
}

func TestReplayRoundTrip(t *testing.T) {
	res := Run(failingScenario(), nil)
	if !res.Failed() {
		t.Fatal("truncated scenario unexpectedly passed")
	}
	b, err := EncodeReplay(res)
	if err != nil {
		t.Fatalf("EncodeReplay: %v", err)
	}
	rp, err := DecodeReplay(b)
	if err != nil {
		t.Fatalf("DecodeReplay: %v", err)
	}
	again := Run(rp.Scenario, nil)
	if !again.Failed() {
		t.Fatal("replayed scenario did not reproduce the failure")
	}
	if again.Hash != res.Hash {
		t.Fatalf("replay schedule hash %016x != original %016x", again.Hash, res.Hash)
	}
	if len(again.Failures) != len(res.Failures) {
		t.Fatalf("replay failures %d != original %d", len(again.Failures), len(res.Failures))
	}
}

// TestShrinkKeepsFailing: whatever the re-run budget, the shrinker
// returns a scenario that still fails, together with that scenario's
// full run. A zero budget leaves the scenario untouched.
func TestShrinkKeepsFailing(t *testing.T) {
	sc := failingScenario()
	for _, maxRuns := range []int{0, 40} {
		min, res := Shrink(sc, maxRuns)
		if res == nil || !res.Failed() {
			t.Fatalf("budget %d: shrink lost the failure", maxRuns)
		}
		if len(min.Ops) > len(sc.Ops) {
			t.Fatalf("budget %d: shrink grew the op stream: %d > %d", maxRuns, len(min.Ops), len(sc.Ops))
		}
		if maxRuns == 0 && !reflect.DeepEqual(min, sc) {
			t.Fatalf("budget 0 changed the scenario: %+v", min)
		}
		// The minimized scenario must re-fail when run from scratch — a
		// shrunk reproduction that only failed during shrinking is useless.
		again := Run(min, nil)
		if !again.Failed() {
			t.Fatalf("budget %d: minimized scenario passed on rerun", maxRuns)
		}
		if again.Hash != res.Hash {
			t.Fatalf("budget %d: minimized rerun hash %016x != shrink result %016x", maxRuns, again.Hash, res.Hash)
		}
	}
}

// TestShrinkSameFailure pins the shrinker's acceptance rule: a
// candidate is kept only if it fails the same way as the original. A
// panic must keep its message, and a non-panicking failure must reject
// a candidate that panics, which is a different defect.
func TestShrinkSameFailure(t *testing.T) {
	var sc Scenario
	stall := &Result{Failures: []Failure{{Oracle: "op", Detail: "dsm: ping-pong stalled"}}}
	other := &Result{Failures: []Failure{{Oracle: "conservation", Detail: "alarm listener did not stop"}}}
	pass := &Result{}
	dispatch := PanicResult(sc, "ck: dispatch of running thread")
	nilDeref := PanicResult(sc, "runtime error: invalid memory address or nil pointer dereference")
	for _, tc := range []struct {
		name      string
		want, got *Result
		same      bool
	}{
		{"failure kept", stall, other, true},
		{"failure lost", stall, pass, false},
		{"failure turned panic", stall, dispatch, false},
		{"panic kept", dispatch, PanicResult(sc, "ck: dispatch of running thread"), true},
		{"panic message changed", dispatch, nilDeref, false},
		{"panic turned failure", dispatch, stall, false},
		{"panic lost", dispatch, pass, false},
	} {
		if got := sameFailure(tc.want, tc.got); got != tc.same {
			t.Errorf("%s: sameFailure = %v, want %v", tc.name, got, tc.same)
		}
	}
}

// TestShrinkPanickingSeed shrinks one seed of each known defect class
// and requires a from-scratch run of the minimized scenario to fail the
// same way: seed 76 panics with `ck: dispatch of running thread`
// (perfbench/expected records it as a crash), and seed 1886 is the DSM
// ping-pong stall, an oracle failure rather than a panic. Once either
// defect is fixed, its row needs another seed of its class.
func TestShrinkPanickingSeed(t *testing.T) {
	for _, tc := range []struct {
		seed    uint64
		maxRuns int
		oracle  string // first failure's oracle
		want    string // substring of its detail
		ops     int    // minimized op count
	}{
		{seed: 76, maxRuns: 30, oracle: oraclePanic, want: "dispatch of running thread", ops: 3},
		{seed: 1886, maxRuns: 40, oracle: "op", want: "dsm: ping-pong stalled", ops: 4},
	} {
		min, res := Shrink(Generate(tc.seed), tc.maxRuns)
		if f := res.Failures; len(f) == 0 || f[0].Oracle != tc.oracle || !strings.Contains(f[0].Detail, tc.want) {
			t.Errorf("seed %d: shrink result is not the %s %q failure: %+v", tc.seed, tc.oracle, tc.want, f)
		}
		if len(min.Ops) != tc.ops {
			t.Errorf("seed %d: shrunk to %d ops, want %d", tc.seed, len(min.Ops), tc.ops)
		}
		if again := guardedRun(min); again.Fingerprint() != res.Fingerprint() {
			t.Errorf("seed %d: rerun of the minimized scenario differs:\n%s\nwant:\n%s", tc.seed, again.Fingerprint(), res.Fingerprint())
		}
	}
}
