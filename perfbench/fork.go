package main

import (
	"fmt"
	"math"
	"time"

	"vpp/internal/ck"
	"vpp/internal/hw"
	"vpp/internal/snap"
)

// The fork workload: boot the fork-benchmark topology of exp.MeasureFork
// once (16 MPMs × 2 CPUs, 32 dirtied pages and 32 retired workers per
// MPM), snapshot and encode it, then run forked continuations off the
// image. One unit is a pooled Image.Fork, a seeded continuation that
// reads and dirties a subset of every MPM's page window, Machine.Run to
// quiescence, and Recycle of the fork's kernels into the pool.
const (
	forkMPMs    = 16
	forkCPUs    = 2
	forkPages   = 32
	forkWorkers = 32
	forkLaps    = 256 // passes each boot worker makes over the window
	forkChunk   = 50
	forkChunks  = 2
	// forkPlans is the number of distinct continuations; the workload
	// seed picks where in them a run starts.
	forkPlans = 512
)

func forkWinBase(mpm int) uint32 { return 0x5000_0000 + uint32(mpm)<<24 }
func forkPFN(mpm, p int) uint32  { return 4096 + uint32(mpm)*256 + uint32(p) }

// forkBoot boots the topology: per MPM a Cache Kernel whose boot thread
// maps and dirties the page window, then starts workers that rewrite it
// and exit. The machine drains to quiescence, so it can be snapshot.
func forkBoot() (*hw.Machine, []*ck.Kernel, error) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = forkMPMs
	cfg.CPUsPerMPM = forkCPUs
	m := hw.NewMachine(cfg)
	ks := make([]*ck.Kernel, forkMPMs)
	errs := make([]error, forkMPMs)
	for i, mpm := range m.MPMs {
		k, err := ck.New(mpm, ck.Config{})
		if err != nil {
			return nil, nil, err
		}
		ks[i] = k
		i := i
		var info ck.BootInfo
		info, err = k.Boot(ck.KernelAttrs{Name: fmt.Sprintf("fb%d", i), LockQuota: [4]int{4, 8, 16, 256}}, 40,
			func(e *hw.Exec) { errs[i] = forkBootBody(k, e, i, info.Space) })
		if err != nil {
			return nil, nil, err
		}
	}
	m.SetMaxSteps(500_000_000)
	if err := m.Run(math.MaxUint64); err != nil {
		return nil, nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return m, ks, nil
}

func forkBootBody(k *ck.Kernel, e *hw.Exec, idx int, sid ck.ObjID) error {
	base := forkWinBase(idx)
	for p := 0; p < forkPages; p++ {
		va := base + uint32(p)*hw.PageSize
		if err := k.LoadMapping(e, sid, ck.MappingSpec{VA: va, PFN: forkPFN(idx, p), Writable: true, Cachable: true}); err != nil {
			return fmt.Errorf("mpm %d: map %#x: %w", idx, va, err)
		}
		e.Store32(va, 0xF0B0_0000^uint32(idx)<<8^uint32(p))
	}
	for wk := 0; wk < forkWorkers; wk++ {
		wk := wk
		we := k.MPM.NewExec(fmt.Sprintf("fbw%d.%d", idx, wk), func(ue *hw.Exec) {
			for lap := 0; lap < forkLaps; lap++ {
				for p := 0; p < forkPages; p++ {
					va := base + uint32(p)*hw.PageSize
					ue.Store32(va, ue.Load32(va)+uint32(wk+1))
				}
			}
			ue.Charge(2_000)
		})
		if _, err := k.LoadThread(e, sid, ck.ThreadState{Priority: 28, Exec: we}, false); err != nil {
			return fmt.Errorf("mpm %d: worker %d: %w", idx, wk, err)
		}
		e.Charge(1_000)
	}
	e.Charge(5_000)
	return nil
}

// forkPlan is one MPM's part of a continuation: count consecutive
// window pages from start, laps passes, stored values salted.
type forkPlan struct {
	laps, count, start int
	salt               uint32
}

// forkPlansFor draws continuation plan id's per-MPM plans.
func forkPlansFor(id int) []forkPlan {
	s := uint64(id)*0x9e3779b97f4a7c15 ^ 0x666f726b
	plans := make([]forkPlan, forkMPMs)
	for i := range plans {
		s = splitmix(s)
		plans[i] = forkPlan{
			laps:  1 + int(s%3),
			count: 1 + int(s>>8%forkPages),
			start: int(s >> 16 % forkPages),
			salt:  uint32(s >> 32),
		}
	}
	return plans
}

// forkPlanID is the plan of unit i of chunk c for a workload seed: a
// pass runs forkChunks × forkChunk consecutive plans.
func forkPlanID(seed uint64, c, i int) int {
	return int((splitmix(seed^0x666f726b) + uint64(c*forkChunk+i)) % forkPlans)
}

// forkOutcome is a continuation's fingerprint: dispatch count, final
// clock, memory checksum over every value read, and the distinct pages
// it dirtied.
type forkOutcome struct {
	dispatches, clock, sum, dirty uint64
}

func (o forkOutcome) String() string {
	return fmt.Sprintf("dispatches=%d clock=%d sum=%016x dirty=%d", o.dispatches, o.clock, o.sum, o.dirty)
}

// forkContinue resumes plan id's continuation on a forked machine and
// runs it to quiescence.
func forkContinue(m *hw.Machine, ks []*ck.Kernel, id int) (forkOutcome, error) {
	var out forkOutcome
	m.SetTraceDispatch(func(string, uint64) { out.dispatches++ })
	plans := forkPlansFor(id)
	sums := make([]uint64, len(ks))
	for i, k := range ks {
		i, pl := i, plans[i]
		out.dirty += uint64(pl.count)
		body := func(e *hw.Exec) {
			var s uint64
			base := forkWinBase(i)
			for lap := 0; lap < pl.laps; lap++ {
				for q := 0; q < pl.count; q++ {
					va := base + uint32((pl.start+q)%forkPages)*hw.PageSize
					s = s*31 + uint64(e.Load32(va))
					e.Store32(va, pl.salt^uint32(lap*131+q*7))
					s = s*31 + uint64(e.Load32(va))
				}
				e.Charge(2_000)
			}
			sums[i] = s
		}
		if _, err := k.Resume(fmt.Sprintf("cont.%d", i), 30, body); err != nil {
			return out, fmt.Errorf("resume mpm %d: %w", i, err)
		}
	}
	if err := m.Run(math.MaxUint64); err != nil {
		return out, fmt.Errorf("run: %w", err)
	}
	out.clock = m.Now()
	for _, s := range sums {
		out.sum = out.sum*1099511628211 + s
	}
	return out, nil
}

func runFork(w *worker) error {
	var want map[int]string
	if !w.spec.Record {
		var err error
		if want, err = expectedFork(); err != nil {
			return err
		}
	}
	w.beginSetup()
	m, ks, err := forkBoot()
	if err != nil {
		return fmt.Errorf("boot: %w", err)
	}
	t0 := time.Now()
	im, err := snap.Take(m, ks)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	t1 := time.Now()
	if _, err := im.Encode(); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	t2 := time.Now()
	d0, err := im.Digest()
	if err != nil {
		return fmt.Errorf("digest: %w", err)
	}
	pool := ck.NewInstancePool()
	pool.Fill(ck.Config{}, forkMPMs)
	im.Pool = pool

	traced := false // the warm-up unit adds no layer counters
	unit := func(id int) (forkOutcome, error) {
		f0 := time.Now()
		fm, fks, err := im.Fork(1, nil)
		if err != nil {
			return forkOutcome{}, fmt.Errorf("fork: %w", err)
		}
		f1 := time.Now()
		var c0 []ck.CacheCounters
		var st0 []ck.Stats
		if traced {
			for _, k := range fks {
				c0, st0 = append(c0, k.CacheCounters()), append(st0, k.Stats)
			}
			addMachine(w, fm, -1)
		}
		out, err := forkContinue(fm, fks, id)
		f2 := time.Now()
		if err != nil {
			return out, err
		}
		cow := fm.Phys.CowStats()
		if cow.CopiedPages != out.dirty || cow.Faults != out.dirty {
			err = fmt.Errorf("plan %d: %d pages copied, %d COW faults; continuation dirtied %d pages",
				id, cow.CopiedPages, cow.Faults, out.dirty)
		}
		if traced {
			w.add("snap.fork_ns", float64(f1.Sub(f0).Nanoseconds()))
			w.add("snap.cont_ns", float64(f2.Sub(f1).Nanoseconds()))
			w.add("hw.cow_pages", float64(cow.CopiedPages))
			w.add("sim.steps", float64(fm.Steps()))
			addMachine(w, fm, 1)
			for i, k := range fks {
				addKernelDelta(w, k, c0[i], st0[i])
			}
		}
		f3 := time.Now()
		for _, k := range fks {
			pool.Recycle(k)
		}
		if traced {
			w.add("snap.recycle_ns", float64(time.Since(f3).Nanoseconds()))
		}
		return out, err
	}
	// Warm-up: one untimed unit, so the pool holds recycled kernels.
	if _, err := unit(forkPlanID(w.spec.Seed, w.spec.Chunk, 0)); err != nil {
		return fmt.Errorf("warm-up fork: %w", err)
	}
	traced = w.spec.Trace
	if traced {
		w.add("snap.take_ns", float64(t1.Sub(t0).Nanoseconds()))
		w.add("snap.encode_ns", float64(t2.Sub(t1).Nanoseconds()))
		if err := forkCowProbe(w, im); err != nil {
			return err
		}
	}
	ps0 := pool.Stats()

	w.beginTimed()
	for _, i := range w.units() {
		id := forkPlanID(w.spec.Seed, w.spec.Chunk, i)
		if w.spec.Record {
			id = i
		}
		w.starting(i)
		out, err := unit(id)
		switch {
		case err != nil:
		case w.spec.Record:
			w.record(i, fmt.Sprintf("%d %s", id, out))
		case want[id] != out.String():
			err = fmt.Errorf("plan %d: %s, expected %s", id, out, want[id])
		}
		w.done(i, err)
	}
	w.endTimed()

	if w.spec.Trace {
		ps := pool.Stats()
		w.add("snap.pool_adopted", float64(ps.Adopted-ps0.Adopted))
		w.add("snap.pool_requests", float64(ps.Adopted-ps0.Adopted+ps.Missed-ps0.Missed))
	}
	if d1, err := im.Digest(); err != nil || d1 != d0 {
		return fmt.Errorf("parent image changed by forks: digest %016x, was %016x (%v)", d1, d0, err)
	}
	return nil
}

// forkCowProbe prices a copy-on-write fault as exp.MeasureFork does:
// fork once and write every frame the image carries.
func forkCowProbe(w *worker, im *snap.Image) error {
	fm, fks, err := im.Fork(1, nil)
	if err != nil {
		return fmt.Errorf("cow probe fork: %w", err)
	}
	var frames []uint32
	for pfn := uint32(0); pfn < im.Frames.Frames(); pfn++ {
		if im.Frames.PageBytes(pfn) != nil {
			frames = append(frames, pfn)
		}
	}
	t0 := time.Now()
	for _, pfn := range frames {
		fm.Phys.Write32(pfn*hw.PageSize, 0xD1D1_D1D1)
	}
	w.add("hw.cow_probe_ns", float64(time.Since(t0).Nanoseconds()))
	w.add("hw.cow_probe_pages", float64(len(frames)))
	for _, k := range fks {
		im.Pool.Recycle(k)
	}
	return nil
}
