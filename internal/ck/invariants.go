package ck

import (
	"fmt"

	"vpp/internal/pagetable"
)

// CheckInvariants verifies the structural invariants the dependency
// model (Figure 6) promises, over the whole Cache Kernel state: loaded
// threads reference loaded spaces and appear in their containment maps,
// page tables and the physical memory map agree record-for-record,
// dependency records reference live targets, and the ready queues hold
// only loaded, ready, unique threads.
//
// It returns the first violation found, or nil. The invariant fuzz test
// calls it after every operation; builds tagged ckinvariants
// (`go build -tags ckinvariants ./cmd/ckos`) additionally run it on
// every Cache Kernel call exit, turning any workload — ckos boots,
// ckbench runs — into an invariant checker at the cost of simulation
// speed (virtual time is unaffected: checking charges no cycles).
func (k *Kernel) CheckInvariants() error {
	// The invariants hold only between Cache Kernel calls. Calls yield at
	// every cycle charge, so a checker running while another processor's
	// call is parked mid-mutation (a mapping load between page-table
	// insert and counter update, say) would report a violation that is
	// really a legitimate intermediate state. Refuse to judge those.
	if k.inCalls > 0 {
		return nil
	}
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("invariant: "+format, args...)
		}
	}

	// Threads reference loaded spaces; containment maps agree.
	k.threads.forEach(func(idx int32, to *ThreadObj) bool {
		if to.space == nil {
			fail("thread %v has nil space", to.id)
			return false
		}
		if got, ok := k.spaces.get(to.space.slot, to.space.id.gen()); !ok || got != to.space {
			fail("thread %v references unloaded space %v", to.id, to.space.id)
		}
		if to.space.threads[to.slot] != to {
			fail("space %v does not contain its thread %v", to.space.id, to.id)
		}
		if to.owner.threads[to.slot] != to {
			fail("kernel %q does not own its thread %v", to.owner.attrs.Name, to.id)
		}
		// Reverse of the signal-record check below: everything the
		// thread believes depends on it must be a live signal record
		// naming it — a corrupted writeback or partial reclaim must
		// never leave a tracked index pointing at a freed or recycled
		// record.
		//ckvet:allow detmap validation scan; any violation fails the run regardless of which is reported
		for idx := range to.sigRecords {
			if int(idx) < 0 || int(idx) >= len(k.pm.recs) {
				fail("thread %v tracks out-of-range record %d", to.id, idx)
				continue
			}
			r := k.pm.rec(idx)
			if r.kind() != depSignal {
				fail("thread %v tracks record %d of kind %d", to.id, idx, r.kind())
			} else if int32(r.dep) != to.slot {
				fail("thread %v tracks signal record %d naming slot %d", to.id, idx, r.dep)
			}
		}
		return err == nil
	})
	if err != nil {
		return err
	}

	// Spaces: containment and page-table/pmap agreement.
	liveSpaces := 0
	k.spaces.forEach(func(idx int32, so *SpaceObj) bool {
		liveSpaces++
		if _, ok := k.kernels.get(so.owner.slot, so.owner.id.gen()); !ok {
			fail("space %v owned by unloaded kernel", so.id)
		}
		if k.spaceByHW[so.hw] != so {
			fail("space %v missing from the hardware-space index", so.id)
		}
		n := 0
		so.hw.Table.Walk(func(va uint32, pte pagetable.PTE) bool {
			n++
			// Each PTE must have exactly one physical-to-virtual record.
			found := 0
			k.pm.findEach(depPhysVirt, pte.PFN(), func(_ int32, r *depRecord) bool {
				if r.dep == va && r.owner() == so.slot {
					found++
				}
				return true
			})
			if found != 1 {
				fail("mapping (%v, %#x) has %d dependency records", so.id, va, found)
			}
			return err == nil
		})
		if n != so.mappings {
			fail("space %v mapping count %d != table pages %d", so.id, so.mappings, n)
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	// The derived indexes hold exactly the live objects: a stale entry
	// would let a reclaimed descriptor act with a dead kernel's
	// authority (callerKernel resolves through these maps).
	if len(k.spaceByHW) != liveSpaces {
		return fmt.Errorf("invariant: spaceByHW has %d entries for %d loaded spaces", len(k.spaceByHW), liveSpaces)
	}
	designated := 0
	k.kernels.forEach(func(_ int32, ko *KernelObj) bool {
		if ko.space == nil {
			return true
		}
		if got, ok := k.spaces.get(ko.space.slot, ko.space.id.gen()); !ok || got != ko.space {
			fail("kernel %q designates unloaded space %v", ko.attrs.Name, ko.space.id)
			return false
		}
		if k.kernelBySpace[ko.space] != ko {
			fail("kernel %q missing from the designated-space index", ko.attrs.Name)
			return false
		}
		designated++
		return true
	})
	if err != nil {
		return err
	}
	if len(k.kernelBySpace) != designated {
		return fmt.Errorf("invariant: kernelBySpace has %d entries for %d designated spaces", len(k.kernelBySpace), designated)
	}

	// Every live pmap record is consistent; totals match.
	live := 0
	for i := range k.pm.recs {
		r := &k.pm.recs[i]
		switch r.kind() {
		case depFree:
			continue
		case depPhysVirt:
			live++
			so, ok := k.spaces.peek(r.owner())
			if !ok {
				return fmt.Errorf("invariant: pv record %d owned by empty space slot %d", i, r.owner())
			}
			pte, ok := so.hw.Table.Lookup(r.dep)
			if !ok || pte.PFN() != r.key {
				return fmt.Errorf("invariant: pv record %d (va %#x) disagrees with page table", i, r.dep)
			}
		case depSignal:
			live++
			pv := k.pm.rec(int32(r.key))
			if pv.kind() != depPhysVirt {
				return fmt.Errorf("invariant: signal record %d references non-pv record %d", i, r.key)
			}
			to, tok := k.threads.peek(int32(r.dep))
			if !tok {
				return fmt.Errorf("invariant: signal record %d names empty thread slot %d", i, r.dep)
			}
			if _, tracked := to.sigRecords[int32(i)]; !tracked {
				return fmt.Errorf("invariant: signal record %d not tracked by its thread", i)
			}
		case depCopyOnWrite:
			live++
			if k.pm.rec(int32(r.key)).kind() != depPhysVirt {
				return fmt.Errorf("invariant: cow record %d references non-pv record", i)
			}
		}
	}
	if live != k.pm.Live() {
		return fmt.Errorf("invariant: pmap live count %d != scanned %d", k.pm.Live(), live)
	}
	if free := len(k.pm.free); free+live != k.pm.Capacity() {
		return fmt.Errorf("invariant: pmap free %d + live %d != capacity %d", free, live, k.pm.Capacity())
	}
	// Everything at or above the issued mark is untouched, which is what
	// lets reset skip it.
	n := k.pm.Capacity()
	for i := int(k.pm.issued); i < n; i++ {
		if k.pm.used[i] || k.pm.recs[i] != (depRecord{}) {
			return fmt.Errorf("invariant: pmap slot %d touched above issued mark %d", i, k.pm.issued)
		}
	}
	if len(k.pm.free) < n-int(k.pm.issued) {
		return fmt.Errorf("invariant: pmap free stack %d shorter than its untouched prefix %d", len(k.pm.free), n-int(k.pm.issued))
	}
	for j := 0; j < n-int(k.pm.issued); j++ {
		if k.pm.free[j] != int32(n-1-j) {
			return fmt.Errorf("invariant: pmap free-stack position %d below issued mark %d holds %d", j, k.pm.issued, k.pm.free[j])
		}
	}

	// Ready queues hold only loaded, ready, unique threads.
	seen := map[*ThreadObj]bool{}
	for p := range k.sched.ready {
		for _, to := range k.sched.ready[p] {
			if seen[to] {
				return fmt.Errorf("invariant: thread %v queued twice", to.id)
			}
			seen[to] = true
			if to.state != threadReady {
				return fmt.Errorf("invariant: queued thread %v in state %d", to.id, to.state)
			}
			if got, ok := k.threads.get(to.slot, to.id.gen()); !ok || got != to {
				return fmt.Errorf("invariant: queued thread %v is unloaded", to.id)
			}
		}
	}
	return err
}
