package simtest

import (
	"fmt"
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

func TestShrinkKeepsFailing(t *testing.T) {
	sc := failingScenario()
	min, res := Shrink(sc, 40)
	if res == nil || !res.Failed() {
		t.Fatal("shrink lost the failure")
	}
	if len(min.Ops) > len(sc.Ops) {
		t.Fatalf("shrink grew the op stream: %d > %d", len(min.Ops), len(sc.Ops))
	}
	// The minimized scenario must re-fail when run from scratch — a
	// shrunk reproduction that only failed during shrinking is useless.
	again := Run(min, nil)
	if !again.Failed() {
		t.Fatal("minimized scenario passed on rerun")
	}
	if again.Hash != res.Hash {
		t.Fatalf("minimized rerun hash %016x != shrink result %016x", again.Hash, res.Hash)
	}
}

// Recording is host-side bookkeeping: an instrumented run must produce
// the very same schedule as a plain one, and its instrumentation must
// be internally consistent — that is what makes the shrink prober's
// prefix-determinism skips sound.
func TestRecordedRunScheduleNeutral(t *testing.T) {
	sc := failingScenario()
	plain := Run(sc, nil)
	rec := runWithOpts(sc, nil, 1, runOpts{record: true})
	if rec.Hash != plain.Hash {
		t.Fatalf("recorded run hash %016x != plain %016x", rec.Hash, plain.Hash)
	}
	if !rec.Failed() {
		t.Fatal("recorded run lost the failure")
	}
	if rec.FirstFailAt > rec.FinalClock {
		t.Fatalf("first failure at %d past the final clock %d", rec.FirstFailAt, rec.FinalClock)
	}
	if len(rec.OpStarts) != len(sc.Ops) {
		t.Fatalf("recorded %d op starts for %d ops", len(rec.OpStarts), len(sc.Ops))
	}
	started := 0
	for i, at := range rec.OpStarts {
		if at == ^uint64(0) {
			continue
		}
		started++
		if at > rec.FinalClock {
			t.Fatalf("op %d started at %d past the final clock %d", i, at, rec.FinalClock)
		}
	}
	if started == 0 {
		t.Fatal("no op ever started; the instrumentation recorded nothing")
	}
}

func TestShrinkStats(t *testing.T) {
	sc := failingScenario()
	const maxRuns = 40
	min, res, st := ShrinkWithStats(sc, maxRuns)
	if res == nil || !res.Failed() {
		t.Fatal("shrink lost the failure")
	}
	if st.ProbesRun > maxRuns {
		t.Fatalf("%d probes run, budget was %d", st.ProbesRun, maxRuns)
	}
	if st.ProbesSkipped > 0 && st.PrefixCyclesSaved == 0 {
		t.Fatalf("%d probes skipped but no prefix cycles accounted", st.ProbesSkipped)
	}
	if again := Run(min, nil); !again.Failed() {
		t.Fatal("minimized scenario passed on rerun")
	}
	t.Logf("shrink: %d run, %d skipped, %d checks skipped, %d prefix cycles saved",
		st.ProbesRun, st.ProbesSkipped, st.ChecksSkipped, st.PrefixCyclesSaved)
}

// TestShrinkPanickingSeed: a scenario whose run panics shrinks to a
// smaller one that panics with the same message, and Run itself still
// panics on it. Seed 76 hits the known `ck: dispatch of running
// thread` defect (perfbench/expected records it as a crash); once that
// is fixed, this test needs another panicking scenario.
func TestShrinkPanickingSeed(t *testing.T) {
	sc := Generate(76)
	min, res := Shrink(sc, 30)
	msg, ok := res.Panic()
	if !ok || !strings.Contains(msg, "dispatch of running thread") {
		t.Fatalf("shrink result is not the seed-76 panic: %+v", res.Failures)
	}
	if len(min.Ops) >= len(sc.Ops) {
		t.Fatalf("shrink kept all %d ops", len(sc.Ops))
	}
	func() {
		defer func() {
			if p := recover(); p == nil || fmt.Sprint(p) != msg {
				t.Fatalf("Run of the minimized scenario panicked with %v, want %q", p, msg)
			}
		}()
		Run(min, nil)
	}()
}
