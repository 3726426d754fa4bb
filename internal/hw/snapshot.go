package hw

import (
	"fmt"
	"hash/fnv"

	"vpp/internal/pagetable"
)

// Hardware-level snapshot state: everything below the supervisor that a
// whole-machine fork must carry — TLB and second-level cache contents,
// local-RAM accounting, and the machine's clocks. Physical memory is
// captured separately as a copy-on-write FrameImage (see mem.go).

// TLBEntryState is one captured TLB entry.
type TLBEntryState struct {
	ASID  uint16
	Valid bool
	VPN   uint32
	PTE   pagetable.PTE
}

// TLBState is the complete state of one CPU's TLB: the entry array in
// slot order, the round-robin replacement cursor, the mutation
// generation and the accumulated statistics.
type TLBState struct {
	Entries []TLBEntryState
	Next    int
	Gen     uint64
	Hits    uint64
	Misses  uint64
}

// State captures the TLB.
func (t *TLB) State() TLBState {
	st := TLBState{
		Entries: make([]TLBEntryState, len(t.entries)),
		Next:    t.next,
		Gen:     t.gen,
		Hits:    t.hits,
		Misses:  t.misses,
	}
	for i, e := range t.entries {
		st.Entries[i] = TLBEntryState{ASID: e.asid, Valid: e.valid, VPN: e.vpn, PTE: e.pte}
	}
	return st
}

// Restore overwrites the TLB with a captured state. The entry count
// must match the TLB's geometry.
func (t *TLB) Restore(st TLBState) error {
	if len(st.Entries) != len(t.entries) {
		return fmt.Errorf("hw: TLB restore size mismatch: %d entries into %d", len(st.Entries), len(t.entries))
	}
	clear(t.index)
	for i, e := range st.Entries {
		t.entries[i] = tlbEntry{asid: e.ASID, valid: e.Valid, vpn: e.VPN, pte: e.PTE}
		if e.Valid {
			t.index[tlbKey(e.ASID, e.VPN)] = int32(i)
		}
	}
	t.next = st.Next
	t.gen = st.Gen
	t.hits = st.Hits
	t.misses = st.Misses
	return nil
}

// L2Tag is one non-zero second-level cache tag: line index and value.
type L2Tag struct {
	Line int32
	Tag  uint32
}

// L2State is the complete state of an MPM's second-level cache: the
// non-zero tags (the array is sparse on any machine that has not
// churned its whole cache) and the accumulated statistics.
type L2State struct {
	NTags  int32 // tag-array length (geometry check)
	Tags   []L2Tag
	Hits   uint64
	Misses uint64
}

// State captures the cache, visiting only the chunks a run has touched.
func (c *L2Cache) State() L2State {
	st := L2State{NTags: int32(c.lines), Hits: c.hits, Misses: c.misses}
	for ci, ch := range c.chunks {
		if ch == nil {
			continue
		}
		base := int32(ci) << l2ChunkShift
		for i, t := range ch {
			if t != 0 {
				st.Tags = append(st.Tags, L2Tag{Line: base + int32(i), Tag: t})
			}
		}
	}
	return st
}

// Restore overwrites the cache with a captured state. Only chunks that
// are present before the call or named by the capture are touched, so
// restoring into a fresh cache costs what the capture holds.
func (c *L2Cache) Restore(st L2State) error {
	if int64(st.NTags) != int64(c.lines) {
		return fmt.Errorf("hw: L2 restore size mismatch: %d tags into %d", st.NTags, c.lines)
	}
	c.FlushAll()
	for _, t := range st.Tags {
		if t.Line < 0 || uint32(t.Line) >= c.lines {
			return fmt.Errorf("hw: L2 restore line %d out of range", t.Line)
		}
		if t.Tag != 0 {
			c.setTag(uint32(t.Line), t.Tag)
		}
	}
	c.hits = st.Hits
	c.misses = st.Misses
	return nil
}

// hashTags feeds every line's tag, in line order, to w64 — the lines
// of an absent chunk as zeros — so the digest is the one a dense tag
// array would produce.
func (c *L2Cache) hashTags(w64 func(uint64)) {
	for idx := uint32(0); idx < c.lines; idx++ {
		w64(uint64(c.tag(idx)))
	}
}

// CPUState is one CPU's captured interrupt state: the pending-cause
// bitmask and the interrupt-suppression flag. A slice timer that fires
// while the CPU is idle leaves a pending bit behind; the next thread
// dispatched takes that interrupt at its first charge point and
// re-arms its slice, so a fork that dropped the bit would drift in
// virtual time from its parent.
type CPUState struct {
	Pending uint32
	IntrOff bool
}

// State captures the CPU's interrupt state.
func (c *CPU) State() CPUState { return CPUState{Pending: c.Pending, IntrOff: c.IntrOff} }

// RestoreIntr overwrites the CPU's interrupt state with a captured one.
func (c *CPU) RestoreIntr(st CPUState) {
	c.Pending = st.Pending
	c.IntrOff = st.IntrOff
}

// RAMState is a local-RAM allocator's captured accounting.
type RAMState struct {
	Used int
	Peak int
}

// State captures the allocator's accounting.
func (a *RAMAllocator) State() RAMState { return RAMState{Used: a.used, Peak: a.peak} }

// Quiescent reports whether the machine has fully drained — every
// engine shard is out of live coroutines and pending events and every
// CPU is idle — which is the precondition for a structural snapshot.
// Sharded machines are only ever observed between epochs, so a drained
// cluster is automatically at an epoch barrier and the capture is
// shard-count-invariant.
func (m *Machine) Quiescent() error {
	if m.Cluster != nil {
		if err := m.Cluster.Quiescent(); err != nil {
			return err
		}
	} else if err := m.Eng.Quiescent(); err != nil {
		return err
	}
	for _, mpm := range m.MPMs {
		for _, c := range mpm.CPUs {
			if c.Cur != nil {
				return fmt.Errorf("hw: machine not quiescent: cpu %d running %q", c.ID, c.Cur.Name)
			}
		}
	}
	return nil
}

// ClockState is the machine's captured virtual-time state: the global
// schedule-point time (shard-count-invariant) plus every CPU's own
// clock, which is where dispatched work resumes counting from.
type ClockState struct {
	Time uint64
	CPUs [][]uint64 // per MPM, per CPU
}

// CaptureClocks snapshots the machine's virtual time.
func (m *Machine) CaptureClocks() ClockState {
	cs := ClockState{Time: m.Now(), CPUs: make([][]uint64, len(m.MPMs))}
	for i, mpm := range m.MPMs {
		cs.CPUs[i] = make([]uint64, len(mpm.CPUs))
		for j, c := range mpm.CPUs {
			cs.CPUs[i][j] = c.Clock.Now()
		}
	}
	return cs
}

// WarpClocks advances the machine's clocks forward to a captured state:
// every engine shard to the global snapshot time and every CPU clock to
// its captured value. The machine must have the same topology as the
// capture; clocks never move backward (warping a fresh machine is the
// intended use).
func (m *Machine) WarpClocks(cs ClockState) error {
	if len(cs.CPUs) != len(m.MPMs) {
		return fmt.Errorf("hw: clock restore topology mismatch: %d MPMs into %d", len(cs.CPUs), len(m.MPMs))
	}
	if m.Cluster != nil {
		m.Cluster.Warp(cs.Time)
	} else {
		m.Eng.Warp(cs.Time)
	}
	for i, mpm := range m.MPMs {
		if len(cs.CPUs[i]) != len(mpm.CPUs) {
			return fmt.Errorf("hw: clock restore topology mismatch: %d CPUs into %d on MPM %d", len(cs.CPUs[i]), len(mpm.CPUs), i)
		}
		for j, c := range mpm.CPUs {
			c.Clock.AdvanceTo(cs.CPUs[i][j])
		}
	}
	return nil
}

// StateDigest hashes the machine's observable hardware state — virtual
// time, schedule steps, CPU clocks and interrupt state, TLB entries,
// L2 tags and physical memory contents — into one value. The replay fork tier uses it to
// assert that a rebuilt machine driven to the same virtual-time cut
// reached a byte-identical state before its divergent continuation.
func (m *Machine) StateDigest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	w64(m.Now())
	w64(m.Steps())
	for _, mpm := range m.MPMs {
		for _, c := range mpm.CPUs {
			w64(c.Clock.Now())
			intr := uint64(c.Pending)
			if c.IntrOff {
				intr |= 1 << 32
			}
			w64(intr)
			for _, e := range c.TLB.entries {
				if !e.valid {
					w64(0)
					continue
				}
				w64(1)
				w64(uint64(e.asid))
				w64(uint64(e.vpn))
				w64(uint64(e.pte))
			}
		}
		mpm.L2.hashTags(w64)
		w64(uint64(mpm.LocalRAM.Used()))
	}
	for pfn := uint32(0); pfn < m.Phys.Frames(); pfn++ {
		f := m.Phys.peek(pfn)
		if f == nil {
			continue
		}
		zero := true
		for _, b := range f {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			// An allocated-but-zero frame is indistinguishable from a
			// never-touched one to every reader; hash them identically
			// so lazy allocation order cannot perturb the digest.
			continue
		}
		w64(uint64(pfn))
		h.Write(f[:])
	}
	return h.Sum64()
}

// FrameDigest hashes one physical frame's contents (zero for a
// never-touched frame). Fork-isolation oracles use it to assert a
// parent's pages are untouched by its forks' writes.
func (m *PhysMem) FrameDigest(pfn uint32) uint64 {
	f := m.peek(pfn)
	if f == nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(f[:])
	return h.Sum64()
}

// FrameDigest hashes one captured frame's contents; see
// PhysMem.FrameDigest.
func (im *FrameImage) FrameDigest(pfn uint32) uint64 {
	f := im.frames[pfn]
	if f == nil {
		return 0
	}
	h := fnv.New64a()
	h.Write(f[:])
	return h.Sum64()
}
