package main

import (
	"fmt"
	"math"
	"time"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// The ops workload: one booted Cache Kernel driven through a fixed
// steady-state mix of basic operations, timed on the host over the
// whole phase rather than call by call. A calling thread D (the boot
// thread) issues the descriptor calls; a user thread U in its own space
// takes the trap and the page fault. D hands U the turn with a
// message-page signal, which is a unit of the mix; U hands it back the
// same way.
//
// One cycle of the mix, one unit per line:
//
//	D: LoadMapping into the full mapping cache (evicts, writes back)
//	D: UnloadMapping of that page
//	D: LoadMapping into the slot the unload freed
//	D: LoadThread of a thread blocked in WaitSignal
//	D: UnloadThread of it
//	D: LoadSpace
//	D: UnloadSpace
//	D→U: signal post (message-page write) and delivery
//	U: getpid trap
//	U: page fault resolved by LoadMappingAndResume (full cache)
//
// The mix has no seed: every run makes the same calls.
const (
	opMapLoadWB = iota
	opMapUnload
	opMapLoad
	opThreadLoad
	opThreadUnload
	opSpaceLoad
	opSpaceUnload
	opSignal
	opGetpid
	opFault
	numOpKinds
)

var opNames = [numOpKinds]string{
	"map_load_wb", "map_unload", "map_load", "thread_load", "thread_unload",
	"space_load", "space_unload", "signal", "getpid", "fault",
}

// opsRows names, per call kind, the ck.MeasureTable2 row that measures
// the same call.
var opsRows = [numOpKinds]string{
	"MappingLoadWB", "MappingUnload", "MappingLoad", "ThreadLoad", "ThreadUnload",
	"SpaceLoad", "SpaceUnload", "SignalDeliver", "TrapGetpid", "MappingLoadOptWB",
}

// table2Rows extracts the rows the mix is checked against.
func table2Rows(t ck.Table2) map[string]float64 {
	return map[string]float64{
		"MappingLoadWB": t.MappingLoadWB, "MappingUnload": t.MappingUnload,
		"MappingLoad": t.MappingLoad, "ThreadLoad": t.ThreadLoad,
		"ThreadUnload": t.ThreadUnload, "SpaceLoad": t.SpaceLoad,
		"SpaceUnload": t.SpaceUnload, "SignalDeliver": t.SignalDeliver,
		"TrapGetpid": t.TrapGetpid, "MappingLoadOptWB": t.MappingLoadOptWB,
	}
}

const (
	opsCycles     = 50_000 // timed cycles per worker
	opsWarmCycles = 64
	opsSysGetpid  = 20
	opsPageRing   = 1 << 18 // more distinct pages than one worker touches
	opsVABase     = 0x1000_0000
	opsFillPFN    = 1025 // D's frames are never touched, as in Table 2
	opsFaultPFN   = 2048 // U writes its frames: inside physical memory
	opsFaultPages = 4096
	opsSendVA     = 0xA000_0000
	opsReplyVA    = 0xB000_0000
	opsSendPFN    = 512
	opsReplyPFN   = 513
)

// opsTally is the virtual-time fingerprint of a timed phase, per call
// kind: the calls made, their total virtual cycles, and how many took
// exactly the Table 2 row's time.
type opsTally struct {
	calls, cycles, atRow [numOpKinds]uint64
}

func (t *opsTally) String(kind int) string {
	return fmt.Sprintf("calls=%d cycles=%d at_row=%d", t.calls[kind], t.cycles[kind], t.atRow[kind])
}

type opsRun struct {
	w      *worker
	rowCyc [numOpKinds]uint64 // Table 2 rows in cycles
	tally  opsTally
	timed  bool
	traced bool
	hostNs [numOpKinds]int64 // traced: host time per call kind
}

func (r *opsRun) count(kind int, cycles uint64, h0 time.Time) {
	if !r.timed {
		return
	}
	if r.traced {
		r.hostNs[kind] += time.Since(h0).Nanoseconds()
	}
	r.tally.calls[kind]++
	r.tally.cycles[kind] += cycles
	if cycles == r.rowCyc[kind] {
		r.tally.atRow[kind]++
	}
}

// now reads the host clock for a traced per-call span.
func (r *opsRun) now() time.Time {
	if r.traced {
		return time.Now()
	}
	return time.Time{}
}

type opsWriteback struct{}

func (opsWriteback) MappingWriteback(ck.MappingState)         {}
func (opsWriteback) ThreadWriteback(ck.ObjID, ck.ThreadState) {}
func (opsWriteback) SpaceWriteback(ck.ObjID)                  {}
func (opsWriteback) KernelWriteback(ck.ObjID)                 {}

func runOps(w *worker) error {
	var want opsExpected
	var err error
	if w.spec.Record {
		var t ck.Table2
		t, err = ck.MeasureTable2(ck.Config{})
		want.Table2 = table2Rows(t)
	} else {
		want, err = expectedOps()
	}
	if err != nil {
		return err
	}
	r := &opsRun{w: w, traced: w.spec.Trace}
	for i := range r.rowCyc {
		r.rowCyc[i] = uint64(math.Round(want.Table2[opsRows[i]] * hw.CyclesPerMicrosecond))
	}
	w.beginSetup()
	m := hw.NewMachine(hw.DefaultConfig())
	k, err := ck.New(m.MPMs[0], ck.Config{})
	if err != nil {
		return err
	}
	var handler func(e *hw.Exec, space ck.ObjID, va uint32) bool
	attrs := ck.KernelAttrs{
		Name: "ops",
		Wb:   opsWriteback{},
		Trap: func(e *hw.Exec, th ck.ObjID, no uint32, args []uint32) (uint32, uint32) {
			if no == opsSysGetpid {
				e.Instr(6) // pid table lookup, as in Table 2's emulator
				return 77, 0
			}
			return ^uint32(0), 0
		},
		Fault: func(e *hw.Exec, th, space ck.ObjID, va uint32, write bool, kind hw.Fault) bool {
			return handler(e, space, va)
		},
		LockQuota: [4]int{4, 8, 16, 256},
	}
	var info ck.BootInfo
	var bodyErr error
	info, err = k.Boot(attrs, 40, func(e *hw.Exec) {
		bodyErr = r.drive(m, k, e, info, &handler)
	})
	if err != nil {
		return err
	}
	m.SetMaxSteps(math.MaxUint64)
	if err := m.Run(math.MaxUint64); err != nil {
		return err
	}
	if bodyErr != nil {
		return bodyErr
	}
	if r.traced {
		for i, ns := range r.hostNs {
			w.add("ck."+opNames[i]+"_host_ns", float64(ns))
			w.add("ck."+opNames[i]+"_calls", float64(r.tally.calls[i]))
		}
	}
	// The fingerprint is kept per call kind, so a mismatch fails every
	// call of that kind.
	for i := 0; i < numOpKinds; i++ {
		got := r.tally.String(i)
		if w.spec.Record {
			w.record(i, opNames[i]+" "+got)
			continue
		}
		if exp := want.Tally[opNames[i]]; got != exp {
			w.res.Failed += int(r.tally.calls[i])
			fmt.Fprintf(w.out, "f %d %s: %s, expected %s\n", i, opNames[i], got, exp)
		}
	}
	return nil
}

func (r *opsRun) drive(m *hw.Machine, k *ck.Kernel, e *hw.Exec, info ck.BootInfo, handler *func(*hw.Exec, ck.ObjID, uint32) bool) error {
	sid := info.Space
	next := 0 // D's page cursor
	va := func(i int) uint32 { return opsVABase + uint32(i%opsPageRing)*hw.PageSize }
	pfn := func(i int) uint32 { return opsFillPFN + uint32(i%opsPageRing) }

	for k.CacheCounters().Mappings.Loaded < k.CacheCounters().Mappings.Capacity {
		if err := k.LoadMapping(e, sid, ck.MappingSpec{VA: va(next), PFN: pfn(next)}); err != nil {
			return fmt.Errorf("fill mapping cache: %w", err)
		}
		next++
	}

	// The thread D loads and unloads parks in WaitSignal; each load
	// reloads the state the previous unload returned.
	parked := ck.ThreadState{Priority: 10, Exec: k.MPM.NewExec("parked", func(pe *hw.Exec) {
		for {
			if _, err := k.WaitSignal(pe); err != nil {
				return
			}
		}
	})}

	usid, err := k.LoadSpace(e, true)
	if err != nil {
		return fmt.Errorf("user space: %w", err)
	}
	faultNext := 0
	var faultLoad uint64
	faulted := false
	*handler = func(he *hw.Exec, space ck.ObjID, fva uint32) bool {
		t0 := he.Now()
		err := k.LoadMappingAndResume(he, space, ck.MappingSpec{
			VA: fva &^ (hw.PageSize - 1), PFN: opsFaultPFN + uint32(faultNext%opsFaultPages),
			Writable: true, Cachable: true,
		})
		faultLoad = he.Now() - t0
		faulted = true
		return err == nil
	}
	var sendAt uint64
	var sendHost time.Time
	stop, uDone := false, false
	var uErr error
	uexec := k.MPM.NewExec("user", func(ue *hw.Exec) {
		defer func() { uDone = true }()
		for {
			if _, err := k.WaitSignal(ue); err != nil {
				uErr = fmt.Errorf("user wait: %w", err)
				return
			}
			if stop {
				return
			}
			r.count(opSignal, ue.Now()-sendAt, sendHost)
			k.SignalReturn(ue)

			t0, h0 := ue.Now(), r.now()
			if pid, _ := ue.Trap(opsSysGetpid); pid != 77 {
				uErr = fmt.Errorf("getpid returned %d", pid)
				return
			}
			r.count(opGetpid, ue.Now()-t0, h0)

			faulted = false
			h0 = r.now()
			ue.Store32(va(faultNext), uint32(faultNext))
			if !faulted {
				uErr = fmt.Errorf("store to page %d did not fault", faultNext)
				return
			}
			r.count(opFault, faultLoad, h0)
			faultNext++
			ue.Store32(opsReplyVA, uint32(faultNext))
		}
	})
	utid, err := k.LoadThread(e, usid, ck.ThreadState{Priority: 35, Exec: uexec}, true)
	if err != nil {
		return fmt.Errorf("user thread: %w", err)
	}
	// Message pages, locked so the mapping churn never evicts them. A
	// locked mapping is only protected while its space, its kernel and
	// its signal thread are locked too: U's space and U are.
	for _, mp := range []struct {
		sid  ck.ObjID
		spec ck.MappingSpec
	}{
		{usid, ck.MappingSpec{VA: opsSendVA, PFN: opsSendPFN, Message: true, Locked: true, SignalThread: utid}},
		{sid, ck.MappingSpec{VA: opsSendVA, PFN: opsSendPFN, Writable: true, Message: true, Locked: true}},
		{sid, ck.MappingSpec{VA: opsReplyVA, PFN: opsReplyPFN, Message: true, Locked: true, SignalThread: info.Thread}},
		{usid, ck.MappingSpec{VA: opsReplyVA, PFN: opsReplyPFN, Writable: true, Message: true, Locked: true}},
	} {
		if err := k.LoadMapping(e, mp.sid, mp.spec); err != nil {
			return fmt.Errorf("message mapping %#x: %w", mp.spec.VA, err)
		}
	}
	e.Charge(hw.CyclesFromMicros(500))

	var tid, sid2 ck.ObjID
	calls := [...]struct {
		kind int
		fn   func() error
	}{
		{opMapLoadWB, func() error { return k.LoadMapping(e, sid, ck.MappingSpec{VA: va(next), PFN: pfn(next)}) }},
		{opMapUnload, func() error { _, err := k.UnloadMapping(e, sid, va(next)); next++; return err }},
		{opMapLoad, func() error {
			err := k.LoadMapping(e, sid, ck.MappingSpec{VA: va(next), PFN: pfn(next)})
			next++
			return err
		}},
		{opThreadLoad, func() (err error) { tid, err = k.LoadThread(e, sid, parked, false); return err }},
		{opThreadUnload, func() (err error) { parked, err = k.UnloadThread(e, tid); return err }},
		{opSpaceLoad, func() (err error) { sid2, err = k.LoadSpace(e, false); return err }},
		{opSpaceUnload, func() error { return k.UnloadSpace(e, sid2) }},
	}
	cycle := func() error {
		for _, c := range calls {
			if c.kind == opThreadUnload {
				e.Charge(hw.CyclesFromMicros(400)) // let the loaded thread block, as Table 2 does
			}
			t0, h0 := e.Now(), r.now()
			if err := c.fn(); err != nil {
				return fmt.Errorf("%s: %w", opNames[c.kind], err)
			}
			r.count(c.kind, e.Now()-t0, h0)
		}
		sendAt, sendHost = e.Now(), r.now()
		e.Store32(opsSendVA, uint32(next))
		if _, err := k.WaitSignal(e); err != nil {
			return fmt.Errorf("D wait: %w", err)
		}
		if uErr != nil {
			return uErr
		}
		k.SignalReturn(e)
		return nil
	}

	for i := 0; i < opsWarmCycles; i++ {
		if err := cycle(); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	var c0 ck.CacheCounters
	var st0 ck.Stats
	var steps0 uint64
	if r.traced {
		c0, st0, steps0 = k.CacheCounters(), k.Stats, m.Steps()
		addMachine(r.w, m, -1)
	}
	r.w.beginTimed()
	r.timed = true
	for i := 0; i < opsCycles; i++ {
		if err := cycle(); err != nil {
			return err
		}
	}
	r.timed = false
	r.w.res.Units = opsCycles * numOpKinds
	r.w.endTimed()
	if r.traced {
		addMachine(r.w, m, 1)
		addKernelDelta(r.w, k, c0, st0)
		r.w.add("sim.steps", float64(m.Steps()-steps0))
	}
	stop = true
	e.Store32(opsSendVA, 0)
	for !uDone {
		e.Charge(2000)
	}
	return uErr
}
