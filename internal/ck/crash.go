package ck

import (
	"fmt"

	"vpp/internal/hw"
)

// Crash models a Cache Kernel failure followed by an immediate reboot
// of the MPM — the fault-containment event the caching model is built
// around (paper §3: each MPM runs its own Cache Kernel instance, and
// everything the instance held is a cache of state the application
// kernels can regenerate). It runs in engine context; internal/chaos
// schedules it at a fixed virtual time. The reboot is instantaneous in
// virtual time — detection and reload latency, which the recovery
// experiment measures, dominate a real reset by orders of magnitude.
//
// After Crash the instance is as freshly initialized as New left it,
// with two deliberate exceptions: descriptor-slot generations and the
// pmap version are preserved (monotonic), so no identifier or cached
// reverse-TLB entry handed out before the crash can ever validate
// against an object loaded after it.
func (k *Kernel) Crash() {
	k.Stats.Crashes++
	k.Epoch++
	if k.Trace != nil {
		k.Trace("crash", k.MPM.Shard.Now(), fmt.Sprintf("epoch %d", k.Epoch))
	}
	// The reset kills whatever is executing on the MPM's CPUs: the
	// register files are gone, so those contexts unwind at their next
	// charge point and can only be recreated, never resumed. Parked
	// contexts (blocked or ready threads) keep their machine state —
	// their descriptors were the cache, and reloading a descriptor
	// resumes them, exactly like the swap/sleep reload paths.
	for _, cpu := range k.MPM.CPUs {
		if cpu.Cur != nil {
			cpu.Cur.Kill()
		}
		cpu.Pending = 0
	}
	// Release every loaded space's translation tree back to local RAM
	// and flush its TLB footprint; the descriptor caches themselves are
	// reused in place.
	k.spaces.forEach(func(_ int32, so *SpaceObj) bool {
		so.hw.Table.Release()
		k.MPM.FlushTLBSpace(so.hw.ASID)
		return true
	})
	k.kernels.wipe()
	k.spaces.wipe()
	k.threads.wipe()
	k.pm.reset()
	k.spaceByHW = make(map[*hw.Space]*SpaceObj)
	k.kernelBySpace = make(map[*SpaceObj]*KernelObj)
	k.first = nil
	k.sched = newScheduler(k)
	for i := range k.rtlbs {
		k.rtlbs[i] = newRTLB(k.Cfg.RTLBEntries)
	}
	k.bumpVersion()
}

// corruptWriteback asks the installed fault injector whether this
// writeback's transfer to the owning kernel is corrupted. Returning
// true means the state is lost in flight: the descriptor reclaim has
// already completed in full — no dependency record survives it — but
// the owner keeps a stale record of the object and recovers through
// the ordinary ErrInvalidID-and-reload protocol.
func (k *Kernel) corruptWriteback(e *hw.Exec, kind string, id ObjID) bool {
	if k.WritebackFault == nil || !k.WritebackFault(kind, id) {
		return false
	}
	k.Stats.WritebacksCorrupted++
	if k.Trace != nil {
		k.trace(e, "chaos-corrupt-writeback", fmt.Sprintf("%s %v", kind, id))
	}
	return true
}
