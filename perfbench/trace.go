package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os/exec"
	"regexp"
	"runtime/metrics"
	"strconv"
	"strings"

	"vpp/internal/ck"
	"vpp/internal/hw"
)

// Traced runs read layer counters through public accessors only, add
// them to the worker's raw counters, and the runner derives the
// per-layer metrics from the sums over a pass's workers.

// addMachine adds (sign 1) or subtracts (sign -1) a machine's TLB and L2
// hit and miss counts.
func addMachine(w *worker, m *hw.Machine, sign float64) {
	for _, mpm := range m.MPMs {
		for _, c := range mpm.CPUs {
			h, mi := c.TLB.Stats()
			w.add("hw.tlb_hits", sign*float64(h))
			w.add("hw.tlb_misses", sign*float64(mi))
		}
		h, mi := mpm.L2.Stats()
		w.add("hw.l2_hits", sign*float64(h))
		w.add("hw.l2_misses", sign*float64(mi))
	}
}

var cacheNames = [4]string{"kernels", "spaces", "threads", "mappings"}

func cacheStats(c ck.CacheCounters) [4]ck.CacheStat {
	return [4]ck.CacheStat{c.Kernels, c.Spaces, c.Threads, c.Mappings}
}

// addKernelDelta adds a kernel's descriptor-cache and scheduler counters
// accumulated since c0 and st0.
func addKernelDelta(w *worker, k *ck.Kernel, c0 ck.CacheCounters, st0 ck.Stats) {
	now, was := cacheStats(k.CacheCounters()), cacheStats(c0)
	for i, s := range now {
		w.add("ck."+cacheNames[i]+"_hits", float64(s.Hits-was[i].Hits))
		w.add("ck."+cacheNames[i]+"_misses", float64(s.Misses-was[i].Misses))
		w.add("ck.writebacks", float64(s.Wbacks-was[i].Wbacks))
		w.add("ck.reloads", float64(s.Reloads-was[i].Reloads))
	}
	w.add("ck.ctx_switches", float64(k.Stats.ContextSwitches-st0.ContextSwitches))
}

// addSchedLatencies adds the p50 and p99 of the goroutine scheduling
// latencies observed between two reads of /sched/latencies:seconds.
func addSchedLatencies(w *worker, h0, h1 *metrics.Float64Histogram) {
	counts := make([]uint64, len(h1.Counts))
	var total uint64
	for i := range counts {
		counts[i] = h1.Counts[i]
		if i < len(h0.Counts) {
			counts[i] -= h0.Counts[i]
		}
		total += counts[i]
	}
	w.add("runtime.sched_workers", 1)
	if total == 0 {
		return
	}
	quantile := func(q float64) float64 {
		rank := uint64(math.Ceil(q * float64(total)))
		var seen uint64
		for i, c := range counts {
			seen += c
			if seen >= rank {
				// Bucket i spans Buckets[i]..Buckets[i+1]; report its
				// upper edge, clamped where the last bucket is open.
				hi := h1.Buckets[i+1]
				if math.IsInf(hi, 1) {
					hi = h1.Buckets[i]
				}
				return hi
			}
		}
		return 0
	}
	w.add("runtime.sched_p50_s", quantile(0.50))
	w.add("runtime.sched_p99_s", quantile(0.99))
}

// profModules are the vpp/internal modules the profile rollup names;
// the rest of the module tree lands in prof.other_pct.
var profModules = []string{
	"sim", "hw", "ck", "aklib", "srm", "ckctl", "snap", "simtest", "chaos",
	"unixemu", "rtk", "dsm", "netboot", "pagetable", "exp",
}

// profRollup merges CPU profiles with `go tool pprof -top` and sums the
// flat samples by layer: each vpp/internal module, the Go runtime split
// into scheduling, garbage collection, allocation and the rest, fmt,
// the benchmark's own code and everything else. Values are percentages
// of all flat samples.
func profRollup(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-unit=ms"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(errb.String()))
	}
	shares := make(map[string]float64)
	var total float64
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		shares[profLayer(f[5])] += ms
		total += ms
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out2 := make(map[string]float64)
	for _, l := range profLayers() {
		if total > 0 {
			out2["prof."+l+"_pct"] = 100 * shares[l] / total
		} else {
			out2["prof."+l+"_pct"] = 0
		}
	}
	return out2, nil
}

func profLayers() []string {
	return append(append([]string{}, profModules...),
		"runtime_sched", "runtime_gc", "runtime_malloc", "runtime_other", "fmt", "harness", "other")
}

var (
	modulePat = regexp.MustCompile(`^vpp/internal/([a-z0-9]+)[./]`)
	// Runtime functions by what they do for the program. Scheduling
	// covers goroutine handoff: channels, parking, the scheduler loop
	// and the futex and lock calls under it.
	runtimeSched  = regexp.MustCompile(`^runtime\.(schedule|findRunnable|park_m|gopark|goready|ready|chansend|chanrecv|chansend1|chanrecv1|chanrecv2|send|recv|runqget|runqput|runqgrab|runqsteal|stealWork|futex|futexsleep|futexwakeup|notesleep|notewakeup|mcall|gogo|goexit.*|lock2|unlock2|lockWithRank|unlockWithRank|wakep|startm|stopm|execute|casgstatus|selectgo|netpoll|usleep|osyield|procyield|resetspinning|checkTimers|runOneTimer|goschedImpl|gosched_m|goready.func1|ready.*|nanotime.*|\(\*waitq\)\..*|\(\*sudog\)|acquireSudog|releaseSudog|handoffp|injectglist|globrunqget|mPark|schedEnableUser|entersyscall.*|exitsyscall.*|systemstack|mstart.*|newproc.*|malg|gfget|gfput|goexit0|dropg|chanparkcommit|pidleget|pidleput|\(\*guintptr\)\.cas|runqempty|parkunlock_c)$`)
	runtimeGC     = regexp.MustCompile(`^runtime\.(gc.*|.*[mM]ark.*|scan.*|.*[sS]weep.*|greyobject|findObject|heapBits.*|heapSetType.*|wbBuf.*|bulkBarrier.*|typePointers.*|spanOf.*|\(\*gcWork\).*|\(\*gcBits\).*|\(\*mspan\)\.(markBitsForIndex|isFree|heapBits.*)|pageIndexOf|wbBufFlush.*|memclrNoHeapPointersChunked)$`)
	runtimeMalloc = regexp.MustCompile(`^runtime\.(mallocgc.*|newobject|newarray|makeslice.*|makemap.*|growslice|nextFreeFast|memclrNoHeapPointers|memmove|\(\*mcache\).*|\(\*mcentral\).*|\(\*mheap\).*|\(\*mspan\).*|\(\*pageAlloc\).*|\(\*fixalloc\).*|mapassign.*|mapaccess.*|mapdelete.*|mapiter.*|rawstring.*|concatstring.*|slicebytetostring|convT.*|makechan)$`)
)

// profLayer names the layer a profiled function belongs to.
func profLayer(fn string) string {
	if m := modulePat.FindStringSubmatch(fn); m != nil {
		for _, p := range profModules {
			if p == m[1] {
				return p
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime."):
		switch {
		case runtimeSched.MatchString(fn):
			return "runtime_sched"
		case runtimeGC.MatchString(fn):
			return "runtime_gc"
		case runtimeMalloc.MatchString(fn):
			return "runtime_malloc"
		}
		return "runtime_other"
	case strings.HasPrefix(fn, "internal/runtime/") || strings.HasPrefix(fn, "sync."):
		return "runtime_other"
	case strings.HasPrefix(fn, "fmt.") || strings.HasPrefix(fn, "strconv."):
		return "fmt"
	case strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "time."):
		// The benchmark's own code, with the host clock its spans read.
		return "harness"
	}
	return "other"
}

// layerMetric is one per-layer metric: its unit and how it derives from
// a traced pass's summed raw counters.
type layerMetric struct {
	name, unit string
	f          func(a passAgg, l map[string]float64, u float64) float64
}

func perUnit(key string) func(passAgg, map[string]float64, float64) float64 {
	return func(_ passAgg, l map[string]float64, u float64) float64 { return per(l[key], u) }
}

func hitRatio(prefix string) func(passAgg, map[string]float64, float64) float64 {
	return func(_ passAgg, l map[string]float64, _ float64) float64 {
		return ratio(l[prefix+"_hits"], l[prefix+"_misses"])
	}
}

// layerMetrics lists the per-layer metrics a traced run derives from
// its counters. A layer a workload does not reach reads 0; the profile
// shares (prof.*) and trace.overhead_ratio are added by the runner.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		{"sim.steps_per_unit", "count", perUnit("sim.steps")},
		{"sim.host_ns_per_step", "ns", func(a passAgg, l map[string]float64, _ float64) float64 {
			return per(a.wall*1e9, l["sim.steps"])
		}},
		{"sim.coros_leaked_per_unit", "count", func(a passAgg, _ map[string]float64, u float64) float64 {
			return per(float64(a.goroutines), u)
		}},
		{"sim.pool_highwater", "count", perUnit("sim.pool_highwater")},
		{"runtime.sched_wait_p50_us", "us", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return 1e6 * per(l["runtime.sched_p50_s"], l["runtime.sched_workers"])
		}},
		{"runtime.sched_wait_p99_us", "us", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return 1e6 * per(l["runtime.sched_p99_s"], l["runtime.sched_workers"])
		}},
		{"runtime.gc_cpu_pct", "%", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return 100 * per(l["runtime.gc_cpu_s"], l["runtime.cpu_s"])
		}},
		{"runtime.gc_cycles_per_unit", "count", perUnit("runtime.gc_cycles")},
		{"hw.tlb_hit_ratio", "ratio", hitRatio("hw.tlb")},
		{"hw.l2_hit_ratio", "ratio", hitRatio("hw.l2")},
		{"hw.cow_pages_per_unit", "count", perUnit("hw.cow_pages")},
		{"hw.cow_us_per_page", "us", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return per(l["hw.cow_probe_ns"]/1000, l["hw.cow_probe_pages"])
		}},
		{"ck.writebacks_per_unit", "count", perUnit("ck.writebacks")},
		{"ck.reloads_per_unit", "count", perUnit("ck.reloads")},
		{"ck.ctx_switches_per_unit", "count", perUnit("ck.ctx_switches")},
		{"snap.take_ms", "ms", func(a passAgg, l map[string]float64, _ float64) float64 {
			return per(l["snap.take_ns"]/1e6, float64(a.workers))
		}},
		{"snap.encode_ms", "ms", func(a passAgg, l map[string]float64, _ float64) float64 {
			return per(l["snap.encode_ns"]/1e6, float64(a.workers))
		}},
		{"snap.fork_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["snap.fork_ns"]/1e6, u) }},
		{"snap.cont_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["snap.cont_ns"]/1e6, u) }},
		{"snap.recycle_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["snap.recycle_ns"]/1e6, u) }},
		{"snap.pool_adopt_ratio", "ratio", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return per(l["snap.pool_adopted"], l["snap.pool_requests"])
		}},
		{"fleet.launch_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["fleet.launch_ns"]/1e6, u) }},
		{"fleet.upgrade_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["fleet.upgrade_ns"]/1e6, u) }},
		{"simtest.generate_us", "us", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return per(l["simtest.generate_ns"]/1000, l["simtest.generated"])
		}},
		{"simtest.run_ms", "ms", func(_ passAgg, l map[string]float64, u float64) float64 { return per(l["simtest.run_ns"]/1e6, u) }},
		{"chaos.faults_per_unit", "count", perUnit("chaos.faults")},
	}
	for _, c := range cacheNames {
		ms = append(ms, layerMetric{"ck." + c + "_hit_ratio", "ratio", hitRatio("ck." + c)})
	}
	for _, op := range opNames {
		op := op
		ms = append(ms, layerMetric{"ck." + op + "_host_ns", "ns", func(_ passAgg, l map[string]float64, _ float64) float64 {
			return per(l["ck."+op+"_host_ns"], l["ck."+op+"_calls"])
		}})
	}
	return ms
}

// perLayer derives the per-layer metrics of one traced pass.
func (a passAgg) perLayer() map[string]float64 {
	out := make(map[string]float64)
	for _, m := range layerMetrics() {
		out[m.name] = m.f(a, a.layer, float64(a.units))
	}
	return out
}

// perLayerUnits maps every per-layer metric name to its unit.
func perLayerUnits() map[string]string {
	u := map[string]string{"trace.overhead_ratio": "ratio"}
	for _, m := range layerMetrics() {
		u[m.name] = m.unit
	}
	for _, l := range profLayers() {
		u["prof."+l+"_pct"] = "%"
	}
	return u
}
