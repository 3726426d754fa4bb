// Command cksim drives the deterministic simulation-testing harness
// (internal/simtest) from the command line: run one seed, sweep a seed
// range, replay a recorded failure, or shrink a failing scenario to a
// minimal reproduction.
//
// Usage:
//
//	cksim -seed 42                 run one seed, print its fingerprint
//	cksim -seed 42 -shrink         on failure, also emit a minimized replay
//	cksim -seeds 500 -start 1      sweep seeds [1, 501), one line each
//	cksim -replay cksim-fail-42.json   re-run a recorded reproduction
//	cksim -seeds 40 -shards 4 -san     sanitized sweep (requires -tags cksan)
//	cksim -orch -seed 7                run one orchestration-family seed
//	cksim -orch -seeds 40 -shards 4    sweep the orchestration family
//	cksim -fork 30                     fork-family sweep: boot once per class,
//	                                   explore each seed's continuations by forking
//	cksim -forkcheck -seeds 40         replay-fork every op-stream seed and require
//	                                   verdicts identical to the plain run
//
// On failure the full scenario is written to cksim-fail-<seed>.json
// (and cksim-min-<seed>.json when shrinking); either file feeds -replay.
// A seed whose run panics (a simulator defect rather than an oracle
// verdict) is reported as FAIL with the panic message, gets its replay
// file, and the sweep goes on; -shrink reduces it to a scenario that
// panics with the same message. A sharded run recovers such a panic
// only when it surfaces on the coordinator goroutine: one raised on a
// shard worker goroutine (an epoch with two or more active shards)
// still aborts the process.
// All output derives from the virtual clock, so every invocation with
// the same arguments prints the same bytes.
package main

import (
	"flag"
	"fmt"
	"os"

	"vpp/internal/sim"
	"vpp/internal/simtest"
)

func main() {
	var (
		seed    = flag.Uint64("seed", 0, "run this single seed")
		seeds   = flag.Int("seeds", 0, "sweep this many seeds from -start")
		start   = flag.Uint64("start", 1, "first seed of a -seeds sweep")
		replay  = flag.String("replay", "", "re-run a recorded failure file")
		shrink  = flag.Bool("shrink", false, "on failure, shrink to a minimal scenario")
		shrinkN = flag.Int("shrinkruns", 60, "re-run budget for -shrink")
		shards  = flag.Int("shards", 1, "engine shards (results are byte-identical to -shards 1)")
		san     = flag.Bool("san", false, "require the cksan runtime ownership sanitizer (build with -tags cksan)")
		orch    = flag.Bool("orch", false, "run the orchestration family (ckctl rolling upgrades) instead of op streams")
		fork    = flag.Int("fork", 0, "sweep this many fork-family seeds from -start (one boot per class, one fork per continuation)")
		fkCheck = flag.Bool("forkcheck", false, "run each op-stream seed through the replay fork tier and require identical verdicts")
	)
	flag.Parse()
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })

	// -san is a guard, not a switch: the sanitizer is compiled in (or
	// not) by the cksan build tag, and a sweep that silently ran without
	// it would claim coverage it did not have.
	if *san && !sim.SanEnabled() {
		fmt.Fprintln(os.Stderr, "cksim: -san requires a binary built with -tags cksan")
		os.Exit(2)
	}

	gen := simtest.Generate
	if *orch {
		gen = simtest.GenerateOrch
	}
	switch {
	case *replay != "":
		os.Exit(runReplay(*replay, *shards))
	case *fork > 0:
		os.Exit(runForkSweep(*start, *fork, *shards))
	case *fkCheck && *seeds > 0:
		os.Exit(runForkCheck(*start, *seeds, *shards))
	case *fkCheck:
		os.Exit(runForkCheck(*seed, 1, *shards))
	case *seeds > 0:
		os.Exit(runSweep(gen, *start, *seeds, *shrink, *shrinkN, *shards))
	case seedSet:
		os.Exit(runOne(gen, *seed, *shrink, *shrinkN, *shards))
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runSeed runs one scenario, recovering a panic raised on this
// goroutine into a failed result that carries the panic message. A
// panic on a shard worker goroutine cannot be recovered here.
func runSeed(sc simtest.Scenario, shards int) (res *simtest.Result) {
	defer func() {
		if p := recover(); p != nil {
			res = simtest.PanicResult(sc, p)
		}
	}()
	return simtest.RunSharded(sc, nil, shards)
}

// printResult prints a run's fingerprint, or for a panicked run (which
// has none) the seed and the panic message.
func printResult(res *simtest.Result) {
	if msg, ok := res.Panic(); ok {
		fmt.Printf("seed %d\nFAIL panic: %s\n", res.Scenario.Seed, msg)
		return
	}
	fmt.Print(res.Fingerprint())
}

func runOne(gen func(uint64) simtest.Scenario, seed uint64, shrink bool, shrinkRuns, shards int) int {
	res := runSeed(gen(seed), shards)
	printResult(res)
	if !res.Failed() {
		return 0
	}
	writeReplay(fmt.Sprintf("cksim-fail-%d.json", seed), res)
	if shrink {
		min, minRes := simtest.Shrink(res.Scenario, shrinkRuns)
		fmt.Printf("shrunk to %d op(s), %d fault(s)\n", len(min.Ops), len(min.Faults))
		writeReplay(fmt.Sprintf("cksim-min-%d.json", seed), minRes)
	}
	return 1
}

func runSweep(gen func(uint64) simtest.Scenario, start uint64, count int, shrink bool, shrinkRuns, shards int) int {
	failed := 0
	const maxArtifacts = 3
	for i := 0; i < count; i++ {
		s := start + uint64(i)
		res := runSeed(gen(s), shards)
		sc := &res.Scenario
		status := "ok"
		if res.Failed() {
			status = fmt.Sprintf("FAIL (%d: %s)", len(res.Failures), res.Failures[0].Oracle)
		}
		if msg, ok := res.Panic(); ok {
			fmt.Printf("seed %-6d %-22s %s\n", s, status, msg)
		} else if o := res.Orch; o != nil {
			fmt.Printf("seed %-6d %-22s mpms=%d pods=%d chaotic=%t mig=%d migfail=%d rst=%d makespan=%d blackout_max=%d hash=%016x\n",
				s, status, sc.MPMs, sc.Orch.Pods, sc.Orch.Chaotic, o.Migrated, o.MigFailed,
				o.Restarts, o.Makespan, o.BlackoutMax, res.Hash)
		} else {
			fmt.Printf("seed %-6d %-22s mpms=%d mix{u=%t r=%t d=%t n=%t c=%t} ops=%d faults=%d hash=%016x\n",
				s, status, sc.MPMs, sc.Mix.Unix, sc.Mix.RTK, sc.Mix.DSM, sc.Mix.Netboot, sc.Crash,
				len(sc.Ops), len(sc.Faults), res.Hash)
		}
		if res.Failed() {
			failed++
			if failed <= maxArtifacts {
				writeReplay(fmt.Sprintf("cksim-fail-%d.json", s), res)
				if shrink {
					_, minRes := simtest.Shrink(res.Scenario, shrinkRuns)
					writeReplay(fmt.Sprintf("cksim-min-%d.json", s), minRes)
				}
			}
		}
	}
	fmt.Printf("swept %d seed(s): %d failed\n", count, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runForkSweep drives the fork scenario family: classes boot once and
// every seed of a class explores its continuations off the shared
// snapshot, with the fork-vs-fresh, COW-isolation and
// snapshot-determinism oracles armed.
func runForkSweep(start uint64, count, shards int) int {
	failed := 0
	for i := 0; i < count; i++ {
		s := start + uint64(i)
		res := simtest.RunForkScenario(simtest.GenerateFork(s), shards)
		sc := res.Scenario
		status := "ok"
		if res.Failed() {
			status = fmt.Sprintf("FAIL (%d: %s)", len(res.Failures), res.Failures[0].Oracle)
			failed++
		}
		fmt.Printf("seed %-6d %-22s mpms=%d pages=%d conts=%d forks=%d snap=%dB cow=%d hash=%016x\n",
			s, status, sc.MPMs, sc.Pages, sc.Conts, res.Forks, res.SnapshotBytes, res.CowCopied, res.Hash)
		if res.Failed() {
			for _, f := range res.Failures {
				fmt.Printf("  %s: %s\n", f.Oracle, f.Detail)
			}
		}
	}
	fmt.Printf("forked %d seed(s): %d failed\n", count, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runForkCheck replays every op-stream seed through the replay fork
// tier (pause at a mid-run cut, verify the state digest reproduces,
// finish) and requires verdicts identical to the unpaused run.
func runForkCheck(start uint64, count, shards int) int {
	failed := 0
	for i := 0; i < count; i++ {
		s := start + uint64(i)
		if err := simtest.ForkCheck(s, shards); err != nil {
			fmt.Printf("seed %-6d FAIL %v\n", s, err)
			failed++
			continue
		}
		fmt.Printf("seed %-6d fork-equivalent\n", s)
	}
	fmt.Printf("fork-checked %d seed(s): %d failed\n", count, failed)
	if failed > 0 {
		return 1
	}
	return 0
}

func runReplay(path string, shards int) int {
	b, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cksim: %v\n", err)
		return 2
	}
	rep, err := simtest.DecodeReplay(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cksim: %v\n", err)
		return 2
	}
	res := runSeed(rep.Scenario, shards)
	printResult(res)
	if res.Failed() {
		fmt.Println("replay: failure reproduced")
		return 1
	}
	fmt.Printf("replay: did NOT reproduce (%d failure(s) recorded in %s)\n", len(rep.Failures), path)
	return 0
}

// writeReplay is the harness's one sanctioned host-state touch: the
// reproduction artifact.
func writeReplay(path string, res *simtest.Result) {
	b, err := simtest.EncodeReplay(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cksim: encode replay: %v\n", err)
		return
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "cksim: %v\n", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}
