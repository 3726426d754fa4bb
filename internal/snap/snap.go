// Package snap implements whole-machine snapshot and fork for the
// Cache Kernel simulation — the paper's caching model pushed to its
// logical extreme: if every piece of kernel state is regenerable cache
// state, the entire machine can be checkpointed and forked like any
// cache.
//
// Snapshots are structural (Image / Take / Fork): at a quiescent point
// — engine drained, no call in flight, no thread descriptor loaded —
// the machine is pure data. Take captures it completely: descriptor
// caches in exact LRU/free/generation order, dependency records,
// reverse TLBs, hardware TLB and L2 contents, local-RAM accounting,
// clocks, and physical memory frozen into a copy-on-write FrameImage.
// Fork rebuilds a fresh machine from the image in O(state) — no boot —
// sharing page frames copy-on-write; a forked machine lazily copies a
// frame only on first write, so forks are cheap and mutually isolated.
//
// A machine paused mid-trace, with coroutines parked mid-call, is not
// pure data: a goroutine stack is opaque to the host. Such a cut is
// reproduced by re-running the deterministic workload to it, which
// the golden workloads' cut forms and simtest.RunCut do.
package snap

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"hash/fnv"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/hw/dev"
	"vpp/internal/srm"
)

// Image is a complete structural snapshot of a quiescent machine. The
// core fields are filled by Take; the optional device, chaos and SRM
// sections are attached by the owner of those objects (they live
// outside hw.Machine) via the respective State/Cursors/Ledger captures.
type Image struct {
	Cfg    hw.Config
	Clocks hw.ClockState
	Frames *hw.FrameImage
	RAM    []hw.RAMState   // per MPM
	TLBs   [][]hw.TLBState // per MPM, per CPU
	Intr   [][]hw.CPUState // per MPM, per CPU
	L2s    []hw.L2State    // per MPM
	CKs    []*ck.State     // per MPM

	// Optional sections.
	NICs   []dev.NICState
	Fibers []dev.FiberState
	Chaos  map[int]uint64 // injector cursors by shard
	SRMs   []srm.Ledger

	// Pool, when non-nil, supplies pre-built Cache Kernel state to Fork
	// instead of rebuilding it per fork. An execution-hosting detail
	// like Shards/ShardMap: it is never encoded, and pooled and
	// unpooled forks are byte-identical.
	Pool *ck.InstancePool
}

// Take captures a structural snapshot of m and its per-MPM Cache
// Kernel instances. The machine must be quiescent and every kernel
// must be free of in-flight calls and loaded thread descriptors;
// otherwise the error (wrapping ck.ErrSnapshotBusy where relevant)
// says what is still executing. Physical memory is frozen
// copy-on-write: after Take the parent itself copies frames before
// writing them, so the image never changes.
func Take(m *hw.Machine, ks []*ck.Kernel) (*Image, error) {
	if err := m.Quiescent(); err != nil {
		return nil, err
	}
	if len(ks) != len(m.MPMs) {
		return nil, fmt.Errorf("snap: %d kernels for %d MPMs", len(ks), len(m.MPMs))
	}
	im := &Image{
		Cfg:    m.Cfg,
		Clocks: m.CaptureClocks(),
	}
	for i, mpm := range m.MPMs {
		st, err := ks[i].CaptureState()
		if err != nil {
			return nil, fmt.Errorf("snap: mpm %d: %w", i, err)
		}
		im.CKs = append(im.CKs, st)
		im.RAM = append(im.RAM, mpm.LocalRAM.State())
		cpus := make([]hw.TLBState, len(mpm.CPUs))
		intr := make([]hw.CPUState, len(mpm.CPUs))
		for j, c := range mpm.CPUs {
			cpus[j] = c.TLB.State()
			intr[j] = c.State()
		}
		im.TLBs = append(im.TLBs, cpus)
		im.Intr = append(im.Intr, intr)
		im.L2s = append(im.L2s, mpm.L2.State())
	}
	im.Frames = m.Phys.Freeze()
	return im, nil
}

// Fork builds a new machine from the image: same topology, optionally
// a different shard count (the capture is shard-count-invariant), page
// frames shared copy-on-write with the image, and one restored Cache
// Kernel per MPM. bind re-supplies each kernel's handler closures by
// (mpm, kernel name); nil means zero handlers. The forked machine is
// quiescent at the parent's virtual time — inject continuation work
// with Kernel.Resume and drive it with Machine.Run.
func (im *Image) Fork(shards int, bind func(mpm int, name string) ck.KernelAttrs) (*hw.Machine, []*ck.Kernel, error) {
	cfg := im.Cfg
	cfg.Shards = shards
	cfg.ShardMap = nil
	m := hw.NewMachine(cfg)
	m.Phys = im.Frames.NewPhysMem()
	// A zero-length run flips a sharded machine into its running state
	// (runtime coroutine-creation semantics) before continuations are
	// injected, mirroring a parent that has actually run its boot.
	if err := m.Run(0); err != nil {
		return nil, nil, err
	}
	if err := m.WarpClocks(im.Clocks); err != nil {
		return nil, nil, err
	}
	var ks []*ck.Kernel
	for i, mpm := range m.MPMs {
		st := im.CKs[i]
		var k *ck.Kernel
		var err error
		if im.Pool != nil {
			k, err = im.Pool.New(mpm, st.Cfg)
		} else {
			k, err = ck.New(mpm, st.Cfg)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("snap: fork mpm %d: %w", i, err)
		}
		kbind := func(name string) ck.KernelAttrs {
			if bind == nil {
				return ck.KernelAttrs{}
			}
			return bind(i, name)
		}
		if err := k.RestoreState(st, kbind); err != nil {
			return nil, nil, fmt.Errorf("snap: fork mpm %d: %w", i, err)
		}
		for j, c := range mpm.CPUs {
			if err := c.TLB.Restore(im.TLBs[i][j]); err != nil {
				return nil, nil, err
			}
			c.RestoreIntr(im.Intr[i][j])
		}
		if err := mpm.L2.Restore(im.L2s[i]); err != nil {
			return nil, nil, err
		}
		// Pin accounting last: descriptor caches and page-table
		// rebuilds above re-allocated the same live bytes, but the
		// parent's peak is history this machine never executed.
		mpm.LocalRAM.RestoreAccounting(im.RAM[i].Used, im.RAM[i].Peak)
		ks = append(ks, k)
	}
	return m, ks, nil
}

// encImage is the gob-encoded portion of an image. Shards and ShardMap
// are execution-hosting details, not machine state: a snapshot taken
// at any shard count encodes identically.
type encImage struct {
	Cfg    hw.Config
	Clocks hw.ClockState
	RAM    []hw.RAMState
	TLBs   [][]hw.TLBState
	Intr   [][]hw.CPUState
	L2s    []hw.L2State
	CKs    []*ck.State
	NICs   []dev.NICState
	Fibers []dev.FiberState
	Chaos  [][2]uint64 // cursors sorted by shard
	SRMs   []srm.Ledger
}

// Encode serializes the image to deterministic bytes: identical
// machine state yields identical bytes regardless of shard count, run,
// or process. The snapshot-determinism oracle compares these directly;
// len(Encode()) is the snapshot-size metric.
func (im *Image) Encode() ([]byte, error) {
	e := encImage{
		Cfg:    im.Cfg,
		Clocks: im.Clocks,
		RAM:    im.RAM,
		TLBs:   im.TLBs,
		Intr:   im.Intr,
		L2s:    im.L2s,
		CKs:    im.CKs,
		NICs:   im.NICs,
		Fibers: im.Fibers,
		SRMs:   im.SRMs,
	}
	e.Cfg.Shards = 0
	e.Cfg.ShardMap = nil
	// Shard indices are small non-negative ints: probe slots in order
	// rather than ranging the map, so the encoding is byte-stable.
	for s := 0; len(e.Chaos) < len(im.Chaos); s++ {
		if v, ok := im.Chaos[s]; ok {
			e.Chaos = append(e.Chaos, [2]uint64{uint64(s), v})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&e); err != nil {
		return nil, err
	}
	// Frame payloads: every frame with non-zero contents, in frame
	// order. Allocated-but-zero frames are indistinguishable from
	// never-touched ones to every reader and are skipped, so lazy
	// allocation order cannot perturb the bytes.
	var hdr [4]byte
	for pfn := uint32(0); pfn < im.Frames.Frames(); pfn++ {
		f := im.Frames.PageBytes(pfn)
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
			continue
		}
		hdr[0], hdr[1], hdr[2], hdr[3] = byte(pfn), byte(pfn>>8), byte(pfn>>16), byte(pfn>>24)
		buf.Write(hdr[:4])
		buf.Write(f[:])
	}
	return buf.Bytes(), nil
}

// Digest hashes Encode's bytes; two images with equal digests carry
// identical machine state.
func (im *Image) Digest() (uint64, error) {
	b, err := im.Encode()
	if err != nil {
		return 0, err
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}
