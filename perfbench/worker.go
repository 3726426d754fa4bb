package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"
)

// A worker is one fresh process that sets up one workload, runs a fixed
// list of units and reports what it measured. The runner starts workers
// one at a time, so a run never has more than one worker's load threads.
//
// Worker output protocol, one record per line on standard output:
//
//	u <i>            unit i is starting (lets the runner find a crash)
//	f <i> <reason>   unit i failed a check
//	k <i> <reason>   unit i failed with a known defect (see knownDefects)
//	x <i> <fields>   expected-value record (-record mode only)
//	r <json>         the workerResult, last line of a worker that finished

// workerSpec is what the runner tells a worker to do.
type workerSpec struct {
	Workload string
	Seed     uint64
	Chunk    int
	From, To int   // unit index range [From, To) within the chunk
	Skip     []int // unit indices in range not to run (run alone instead)
	Trace    bool
	Profile  string // CPU profile path (traced workers)
	Record   bool   // print expected-value records instead of checking
	// SetupOnly ends the worker once set-up is done: it only adds a
	// set-up time sample.
	SetupOnly bool
}

// workerResult is a finished worker's report.
type workerResult struct {
	SetupS     float64
	Units      int // units run in the timed phase
	Failed     int // of those, units that failed a check
	WallS      float64
	CPUS       float64 // process user+sys CPU over the timed phase
	Allocs     uint64  // heap objects allocated over the timed phase
	AllocBytes uint64
	RetainedMB float64 // live heap after a full GC, timed phase over
	Goroutines int     // goroutine count change over the timed phase

	// Raw layer counters of a traced worker, summed by the runner
	// across a pass's workers before metrics are derived from them.
	Layer map[string]float64 `json:",omitempty"`
}

// worker is the in-process state of a worker run.
type worker struct {
	spec  workerSpec
	out   *bufio.Writer
	start time.Time

	res  workerResult
	t0   time.Time
	cpu0 time.Duration
	gor0 int
	mem0 []metrics.Sample
}

// Workload-independent runtime samples read around the timed phase.
var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, n := range runtimeSamples {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapBytes returns the live heap after two full collections, so
// that objects freed by finalizers run in the first are gone too.
func liveHeapBytes() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// beginSetup starts the set-up clock. Each workload calls it right
// before its first call into the simulator, once its expected values are
// read, so set-up time covers the simulator's work and not process start.
func (w *worker) beginSetup() { w.start = time.Now() }

// beginTimed ends set-up and starts the measured phase. A set-up-only
// worker reports its set-up time and exits here.
func (w *worker) beginTimed() {
	w.res.SetupS = time.Since(w.start).Seconds()
	if w.spec.SetupOnly {
		if err := w.report(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	runtime.GC()
	w.gor0 = runtime.NumGoroutine()
	w.mem0 = readRuntime()
	w.cpu0 = processCPU()
	w.t0 = time.Now()
}

// endTimed closes the measured phase.
func (w *worker) endTimed() {
	w.res.WallS = time.Since(w.t0).Seconds()
	w.res.CPUS = (processCPU() - w.cpu0).Seconds()
	mem := readRuntime()
	w.res.Allocs = mem[0].Value.Uint64() - w.mem0[0].Value.Uint64()
	w.res.AllocBytes = mem[1].Value.Uint64() - w.mem0[1].Value.Uint64()
	w.res.Goroutines = runtime.NumGoroutine() - w.gor0
	if w.spec.Trace {
		w.add("runtime.gc_cycles", float64(mem[2].Value.Uint64()-w.mem0[2].Value.Uint64()))
		w.add("runtime.gc_cpu_s", mem[3].Value.Float64()-w.mem0[3].Value.Float64())
		w.add("runtime.cpu_s", mem[4].Value.Float64()-w.mem0[4].Value.Float64())
		addSchedLatencies(w, w.mem0[5].Value.Float64Histogram(), mem[5].Value.Float64Histogram())
	}
	w.res.RetainedMB = float64(liveHeapBytes()) / (1 << 20)
}

// starting announces unit i before it runs.
func (w *worker) starting(i int) {
	fmt.Fprintf(w.out, "u %d\n", i)
	w.out.Flush()
}

// done records unit i's outcome.
func (w *worker) done(i int, err error) {
	w.res.Units++
	if err != nil {
		w.res.Failed++
		fmt.Fprintf(w.out, "f %d %s\n", i, oneLine(err.Error()))
	}
}

// doneKnown records unit i as failed by a known defect.
func (w *worker) doneKnown(i int, reason string) {
	w.res.Units++
	w.res.Failed++
	fmt.Fprintf(w.out, "k %d %s\n", i, oneLine(reason))
}

// record prints an expected-value record (-record mode).
func (w *worker) record(i int, fields string) {
	fmt.Fprintf(w.out, "x %d %s\n", i, fields)
}

// add accumulates a raw layer counter (traced workers only).
func (w *worker) add(name string, v float64) {
	if w.res.Layer == nil {
		w.res.Layer = make(map[string]float64)
	}
	w.res.Layer[name] += v
}

// units lists the unit indices this worker runs, in order.
func (w *worker) units() []int {
	skip := make(map[int]bool, len(w.spec.Skip))
	for _, i := range w.spec.Skip {
		skip[i] = true
	}
	var out []int
	for i := w.spec.From; i < w.spec.To; i++ {
		if !skip[i] {
			out = append(out, i)
		}
	}
	return out
}

// runWorker is the worker process's main.
func runWorker(spec workerSpec) error {
	runtime.GOMAXPROCS(loadThreads())
	w := &worker{spec: spec, out: bufio.NewWriter(os.Stdout)}
	defer w.out.Flush()
	wl, ok := workloads[spec.Workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", spec.Workload)
	}
	// Pin the collector's target: a GOGC in the environment must not
	// change what is measured.
	debug.SetGCPercent(100)
	if spec.Profile == "" {
		if err := wl.run(w); err != nil {
			return err
		}
	} else if err := profiled(spec.Profile, func() error { return wl.run(w) }); err != nil {
		return err
	}
	return w.report()
}

// report prints the workerResult, the worker's last line.
func (w *worker) report() error {
	b, err := json.Marshal(w.res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w.out, "r %s\n", b)
	return w.out.Flush()
}

// profiled runs fn under a CPU profile written to path.
func profiled(path string, fn func() error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpu profile: %w", err)
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("cpu profile: %w", cerr)
	}
	return err
}

func oneLine(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c == '\n' || c == '\r' {
			b[i] = ' '
		}
	}
	return string(b)
}
