// Command ckbench regenerates the paper's tables and the evaluation
// experiments on the simulated ParaDiGM machine, printing measured values
// next to the published ones. Run with -exp all (default) or a
// comma-separated subset:
//
//	t1    Table 1: object sizes and cache geometry
//	t2    Table 2 + §5.3: basic operation and trap/signal/fault times
//	s52a  §5.2 descriptor memory budget arithmetic
//	s52b  §5.2 mapping-cache thrash sweep
//	s52c  §5.2 MP3D page-locality degradation
//	a1    ablation: reverse-TLB vs two-stage signal delivery
//	a7    ablation: LRU vs application-controlled database paging
//	rec   crash-recovery latency under a scripted Cache Kernel crash
//	      (opt-in: not part of "all"; with -json writes
//	      BENCH_recovery.json)
//	orch  live cross-MPM kernel migration blackout under a rolling
//	      upgrade (opt-in; with -json writes BENCH_orchestration.json)
//	fork  whole-machine snapshot/fork cost: boot-vs-fork host time, COW
//	      fault cost, snapshot size (opt-in; with -json writes
//	      BENCH_fork.json)
//
// An unknown name is an error (exit 2). Host-side simulator throughput
// is measured by perfbench and the go test benchmarks, not here (see
// EXPERIMENTS.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"vpp/internal/exp"
	"vpp/internal/simk"
)

// experiments are the section names -exp accepts besides "all".
var experiments = []string{"t1", "t2", "s52a", "s52b", "s52c", "a1", "a7", "rec", "orch", "fork"}

// parseExp splits the comma-separated -exp list into the set of names
// to run, rejecting any name that is neither "all" nor an experiment.
func parseExp(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(list, ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(experiments, name) {
			return nil, fmt.Errorf("unknown experiment %q; valid: all, %s", name, strings.Join(experiments, ", "))
		}
		want[name] = true
	}
	return want, nil
}

func main() {
	expFlag := flag.String("exp", "all", "experiments to run (comma separated)")
	full := flag.Bool("full", false, "use the paper's full 65536-descriptor pool in s52b (slower)")
	jsonOut := flag.Bool("json", false, "with -exp rec, orch or fork, also write that experiment's BENCH_*.json report")
	flag.Parse()

	want, err := parseExp(*expFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ckbench:", err)
		os.Exit(2)
	}
	all := want["all"]
	failed := false

	section := func(id, title string) bool {
		if !all && !want[id] {
			return false
		}
		fmt.Printf("=== %s: %s ===\n", strings.ToUpper(id), title)
		return true
	}
	check := func(err error) bool {
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			failed = true
			return false
		}
		return true
	}

	if section("t1", "Cache Kernel object sizes (paper Table 1)") {
		fmt.Println(exp.MeasureTable1())
	}
	if section("t2", "basic operation times, µs (paper Table 2 and §5.3)") {
		t2, err := exp.MeasureTable2()
		if check(err) {
			fmt.Println(t2)
			fmt.Println(t2.Counters())
		}
	}
	if section("s52a", "descriptor memory budget (paper §5.2)") {
		fmt.Println(exp.MeasureMemBudget())
	}
	if section("s52b", "mapping-cache replacement interference sweep (paper §5.2)") {
		slots := 4096
		if *full {
			slots = 65536
		}
		res, err := exp.MeasureThrash(slots, nil, 2)
		if check(err) {
			fmt.Println(res)
		}
	}
	if section("s52c", "MP3D page locality (paper §5.2: up to 25% degradation)") {
		res, err := exp.MeasureMP3D(simk.MP3DConfig{})
		if check(err) {
			fmt.Println(res)
		}
	}
	if section("a1", "reverse-TLB vs two-stage signal delivery (paper §4.1)") {
		res, err := exp.MeasureSignalAblation()
		if check(err) {
			fmt.Println(res)
		}
	}
	if section("a7", "database paging policy (paper §1 motivation)") {
		res, err := exp.MeasureDB()
		if check(err) {
			fmt.Println(res)
		}
	}
	// Opt-in: the scripted crash perturbs nothing when not requested,
	// and "all" output stays byte-stable across commits.
	if want["rec"] {
		fmt.Printf("=== REC: crash recovery latency (paper §3: all Cache Kernel state is regenerable) ===\n")
		res, err := exp.RunRecoveryWorkload(nil, 1)
		if check(err) {
			fmt.Println(res)
			if *jsonOut {
				b, err := json.MarshalIndent(res, "", "  ")
				if check(err) {
					if check(os.WriteFile("BENCH_recovery.json", append(b, '\n'), 0o644)) {
						fmt.Println("wrote BENCH_recovery.json")
					}
				}
			}
		}
	}
	if want["orch"] {
		fmt.Printf("=== ORCH: live migration blackout under a rolling upgrade (DESIGN §12) ===\n")
		res, err := exp.RunOrchestrationWorkload(nil, 1)
		if check(err) {
			fmt.Println(res)
			if *jsonOut {
				b, err := json.MarshalIndent(res, "", "  ")
				if check(err) {
					if check(os.WriteFile("BENCH_orchestration.json", append(b, '\n'), 0o644)) {
						fmt.Println("wrote BENCH_orchestration.json")
					}
				}
			}
		}
	}
	if want["fork"] {
		fmt.Printf("=== FORK: whole-machine snapshot/fork cost (DESIGN §13) ===\n")
		res, err := exp.MeasureFork()
		if check(err) {
			fmt.Println(res)
			if res.ForkToBootRatio > 0.10 {
				check(fmt.Errorf("fork costs %.1f%% of a boot; boot-once/fork-many needs <= 10%%", 100*res.ForkToBootRatio))
			}
			if *jsonOut {
				b, err := json.MarshalIndent(res, "", "  ")
				if check(err) {
					if check(os.WriteFile("BENCH_fork.json", append(b, '\n'), 0o644)) {
						fmt.Println("wrote BENCH_fork.json")
					}
				}
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
