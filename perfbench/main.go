// Command perfbench is the simulator's benchmark: four workloads, each
// measured end to end from outside the program by timing calls into its
// public packages, with a traced mode that breaks the cost down by
// layer. See NOTES.md for the workloads, the metrics and what is known
// to fail.
//
//	perfbench --workload sweep|fleet|fork|ops --seed N --seconds S --trace 0|1
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// workloadDef is how the runner splits a workload into workers.
type workloadDef struct {
	chunk   int  // units per worker
	chunks  int  // workers per pass
	indexed bool // units announce themselves, so a crash is located
	// samplers is the number of set-up-only workers an untraced pass
	// adds, so setup_s is a median over enough set-ups to be steady.
	samplers int
	// passMs is the nominal wall time of one untraced pass, set-up-only
	// workers included, on the reference host (2 vCPUs): it sizes a
	// run's fixed pass count (passes).
	passMs int
	run    func(*worker) error
	// crashing lists a chunk's units recorded as crashing their worker.
	crashing func(seed uint64, chunk int) ([]int, error)
}

var workloads = map[string]workloadDef{
	"sweep": {chunk: sweepChunk, chunks: sweepChunks, indexed: true, samplers: 12, passMs: 5000, run: runSweep, crashing: sweepCrashing},
	"fleet": {chunk: fleetChunk, chunks: 1, indexed: true, samplers: 3, passMs: 2100, run: runFleet},
	"fork":  {chunk: forkChunk, chunks: forkChunks, indexed: true, passMs: 2100, run: runFork},
	"ops":   {chunk: opsCycles * numOpKinds, chunks: 1, samplers: 4, passMs: 1350, run: runOps},
}

// passes is the number of passes a run makes: as many nominal passes as
// fit in seconds, at least one; a traced run makes half as many
// untraced-and-traced pairs. It depends on the arguments alone, never on
// how fast the host is at the time, so two runs with the same arguments
// do the same work and report the same attempts and failures.
func (def workloadDef) passes(seconds int, trace bool) int {
	n := max(1, seconds*1000/def.passMs)
	if trace {
		n = max(1, n/2)
	}
	return n
}

// loadThreads is every worker's GOMAXPROCS: at most two load threads,
// whatever the host — the fleet's two engine shards, or one simulation
// thread and the collector.
func loadThreads() int { return min(2, runtime.NumCPU()) }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sweep, fleet, fork or ops")
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "measured seconds: sizes the run's fixed number of passes")
		trace    = flag.Int("trace", 0, "1 for the traced run that prints the per-layer metrics")
		workDir  = flag.String("work", ".bench_build/perfbench", "directory for profiles")
		workerJS = flag.String("worker", "", "internal: run as a worker with this JSON spec")
		record   = flag.String("record", "", "regenerate the expected fingerprints into this directory and exit")
	)
	flag.Parse()

	var err error
	switch {
	case *workerJS != "":
		var spec workerSpec
		if err = json.Unmarshal([]byte(*workerJS), &spec); err == nil {
			err = runWorker(spec)
		}
	case *record != "":
		err = recordExpected(*record)
	default:
		if _, ok := workloads[*workload]; !ok {
			err = fmt.Errorf("--workload must be one of sweep, fleet, fork, ops (got %q)", *workload)
			break
		}
		if *seconds < 1 || (*trace != 0 && *trace != 1) {
			err = fmt.Errorf("--seconds must be at least 1 and --trace 0 or 1")
			break
		}
		var res *result
		res, err = (&runner{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
			workDir: *workDir, log: os.Stdout}).run()
		if err == nil {
			var b []byte
			if b, err = json.Marshal(res); err == nil {
				fmt.Println(string(b))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}
