package exp

import (
	"slices"
	"testing"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/simtest"
	"vpp/internal/snap"
)

// cutWorkload is the cut form every golden workload offers: run to
// virtual time cut, call pause once, then run to completion.
type cutWorkload func(trace func(name string, at uint64), shards int, cut uint64, pause func(m *hw.Machine)) (finalClock, steps uint64, err error)

// dispatch is one schedule-trace record.
type dispatch struct {
	name string
	at   uint64
}

// recordCut runs w to completion, recording every dispatch and, at the
// pause, the trace index and the machine state digest.
func recordCut(w cutWorkload, shards int, cut uint64) (trace []dispatch, cutIndex int, digest uint64, err error) {
	_, _, err = w(func(name string, at uint64) { trace = append(trace, dispatch{name, at}) }, shards, cut,
		func(m *hw.Machine) { cutIndex, digest = len(trace), m.StateDigest() })
	return trace, cutIndex, digest, err
}

// TestForkEquivalenceMatrix is the fork oracle for a machine paused
// mid-trace, over every golden workload. Such a machine cannot be
// snapshotted structurally, so a fork is a rebuild from the recipe: run
// twice to a mid-trace cut, and require the second run to reach the
// same machine state digest at the cut and the same dispatch tail
// after it. Serial and four-shard, for each of the five golden
// families.
func TestForkEquivalenceMatrix(t *testing.T) {
	cases := []struct {
		name string
		w    cutWorkload
	}{
		{"determinism", RunDeterminismWorkloadCut},
		{"boot_echo", RunBootEchoWorkloadCut},
		{"recovery", RunRecoveryTraceCut},
		{"orchestration", RunOrchestrationTraceCut},
		{"simtest_seed11", simtest.SeedWorkloadCut(11)},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			// One plain run records the dispatch times; the cut goes
			// strictly between two mid-trace dispatches so both halves
			// are non-empty.
			var ats []uint64
			if _, _, err := tc.w(func(name string, at uint64) { ats = append(ats, at) }, 1, 0, nil); err != nil {
				t.Fatalf("plain run: %v", err)
			}
			cut := midCut(ats)
			if cut == 0 {
				t.Fatalf("no mid-trace cut in %d dispatches", len(ats))
			}
			for _, shards := range []int{1, 4} {
				parent, pi, pd, err := recordCut(tc.w, shards, cut)
				if err != nil {
					t.Fatalf("shards=%d: parent run: %v", shards, err)
				}
				if pi == 0 || pi == len(parent) {
					t.Fatalf("shards=%d: cut %d not mid-trace (index %d of %d dispatches)", shards, cut, pi, len(parent))
				}
				fork, fi, fd, err := recordCut(tc.w, shards, cut)
				if err != nil {
					t.Fatalf("shards=%d: forked run: %v", shards, err)
				}
				if fd != pd {
					t.Fatalf("shards=%d: fork diverged from parent at cut %d: state digest %#x, want %#x", shards, cut, fd, pd)
				}
				if !slices.Equal(parent[pi:], fork[fi:]) {
					t.Fatalf("shards=%d: forked tail (%d dispatches) differs from parent tail (%d)", shards, len(fork)-fi, len(parent)-pi)
				}
			}
		})
	}
}

// midCut picks a virtual time strictly between two dispatches near the
// middle of a trace, or 0 if every dispatch shares one instant.
func midCut(ats []uint64) uint64 {
	for off := 0; off < len(ats); off++ {
		for _, i := range []int{len(ats)/2 - off, len(ats)/2 + off} {
			if i >= 0 && i+1 < len(ats) && ats[i]+1 < ats[i+1] {
				return (ats[i] + ats[i+1]) / 2
			}
		}
	}
	return 0
}

// TestMeasureFork smoke-tests the snapshot/fork benchmark and asserts
// the structural invariants that must hold regardless of host speed:
// the fork dirtied exactly the shared frames it wrote, and a fork costs
// less than the boot it replaces. The headline fork-to-boot ratio is
// recorded by `ckbench -exp fork` in BENCH_fork.json.
func TestMeasureFork(t *testing.T) {
	if testing.Short() {
		t.Skip("fork benchmark boots a 16-MPM machine")
	}
	r, err := MeasureFork()
	if err != nil {
		t.Fatal(err)
	}
	if r.CowPages == 0 || r.CowCopiedByDirty != r.CowPages {
		t.Fatalf("dirtying every image frame copied %d of %d pages", r.CowCopiedByDirty, r.CowPages)
	}
	if r.SnapshotBytes == 0 {
		t.Fatal("empty snapshot encoding")
	}
	if r.ForkToBootRatio >= 1 {
		t.Fatalf("fork (%.2f ms) not cheaper than boot (%.2f ms)", r.ForkHostMs, r.BootHostMs)
	}
}

// TestPooledForkEquivalence: a fork that adopts deliberately dirtied,
// recycled kernel state from an InstancePool must be byte-identical to
// an unpooled fork of the same image. The recycled pmaps carry a full
// restored workload's mapping state when they are reclaimed, so any
// reset shortfall shows up in the re-snapshot digest.
func TestPooledForkEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a multi-MPM machine")
	}
	m, ks, err := bootForkBench(4, 2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	im, err := snap.Take(m, ks)
	if err != nil {
		t.Fatal(err)
	}

	fm1, fks1, err := im.Fork(1, nil)
	if err != nil {
		t.Fatalf("unpooled fork: %v", err)
	}
	im1, err := snap.Take(fm1, fks1)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := im1.Digest()
	if err != nil {
		t.Fatal(err)
	}

	// Recycle the unpooled fork's kernels — their pmaps hold the whole
	// restored mapping workload — and fork again through the pool.
	pool := ck.NewInstancePool()
	for _, k := range fks1 {
		pool.Recycle(k)
	}
	im.Pool = pool
	fm2, fks2, err := im.Fork(1, nil)
	if err != nil {
		t.Fatalf("pooled fork: %v", err)
	}
	im2, err := snap.Take(fm2, fks2)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := im2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("pooled fork digest %016x != unpooled %016x", d2, d1)
	}
	ps := pool.Stats()
	if ps.Recycled != len(fks1) || ps.Adopted != len(fks2) {
		t.Fatalf("pool did not serve the fork: stats %+v", ps)
	}
}
