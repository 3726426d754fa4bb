package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"testing"

	"vpp/internal/ck"
)

// TestMain lets the test binary serve as its own worker: the runner
// starts os.Executable() with -worker.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-worker" {
		var spec workerSpec
		err := json.Unmarshal([]byte(os.Args[2]), &spec)
		if err == nil {
			err = runWorker(spec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// seedAt finds a workload seed whose sweep window starts at scenario
// seed first.
func seedAt(first uint64) uint64 {
	for s := uint64(0); ; s++ {
		if sweepSeed(s, 0, 0) == first {
			return s
		}
	}
}

// TestShortRuns runs every workload for a few units, untraced and
// traced, and checks that each metric BENCHMARK.json names prints with
// its unit and that every failure is a recorded known defect. The sweep
// windows cover seed 76 (a worker crash) and seed 1346 (an oracle
// failure).
func TestShortRuns(t *testing.T) {
	spec := loadBenchSpec(t)
	type run struct {
		workload string
		seed     uint64
		units    int
		known    bool // the window holds a known defect
	}
	runs := []run{
		{"sweep", seedAt(72), 8, true},
		{"sweep", seedAt(1343), 6, true},
		{"fleet", 1, 2, false},
		{"fork", 1, 3, false},
		{"ops", 1, 0, false},
	}
	for _, r := range runs {
		for _, trace := range []bool{false, true} {
			r, trace := r, trace
			t.Run(fmt.Sprintf("%s-%d-trace=%t", r.workload, r.seed, trace), func(t *testing.T) {
				d := &runner{workload: r.workload, seed: r.seed, seconds: 1, trace: trace,
					workDir: t.TempDir(), log: io.Discard, units: r.units, chunks: 1}
				res, err := d.run()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct {
					t.Fatalf("not correct: %v", d.unknown)
				}
				var known int
				for _, n := range d.known {
					known += n
				}
				if res.Failed != known || r.known != (known > 0) {
					t.Fatalf("failed %d, known-defect failures %d; want every failure known, and some only if the window holds one", res.Failed, known)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %q", m.Name, got, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json lists %d", len(res.Metrics), len(want))
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s is %v", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestUnrecordedCrashFails checks that a crash counts as a known defect
// only at a unit expected/ records as crashing: with the sweep's crash
// records withheld, seed 76's crash, whose message names a known defect,
// makes the run incorrect.
func TestUnrecordedCrashFails(t *testing.T) {
	def := workloads["sweep"]
	t.Cleanup(func() { workloads["sweep"] = def })
	withheld := def
	withheld.crashing = func(uint64, int) ([]int, error) { return nil, nil }
	workloads["sweep"] = withheld

	d := &runner{workload: "sweep", seed: seedAt(74), seconds: 1, workDir: t.TempDir(), log: io.Discard, units: 4, chunks: 1}
	res, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(d.known) != 0 || res.Failed == 0 {
		t.Fatalf("correct=%t failed=%d known=%v; want an incorrect run with the crash not known", res.Correct, res.Failed, d.known)
	}
}

// TestOpsRowsMatchTable2 checks the Table 2 rows kept with the
// benchmark against ck.MeasureTable2, and that the calls measured under
// Table 2's own conditions ran at the row's time in the recorded tally.
func TestOpsRowsMatchTable2(t *testing.T) {
	want, err := expectedOps()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := ck.MeasureTable2(ck.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range table2Rows(t2) {
		if want.Table2[name] != v {
			t.Errorf("Table 2 row %s: kept %v, measured %v", name, want.Table2[name], v)
		}
	}
	for _, op := range []string{"map_load", "thread_load", "space_load", "space_unload", "getpid"} {
		var calls, cycles, atRow uint64
		if _, err := fmt.Sscanf(want.Tally[op], "calls=%d cycles=%d at_row=%d", &calls, &cycles, &atRow); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if calls != opsCycles || atRow != calls {
			t.Errorf("%s: %d of %d calls at the Table 2 row", op, atRow, calls)
		}
	}
}

func TestProfLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"vpp/internal/ck.(*Kernel).LoadMapping": "ck",
		"vpp/internal/hw/dev.(*NIC).Send":       "hw",
		"vpp/internal/lint.Run":                 "other",
		"runtime.chanrecv":                      "runtime_sched",
		"runtime.scanobject":                    "runtime_gc",
		"runtime.mallocgc":                      "runtime_malloc",
		"runtime.memequal":                      "runtime_other",
		"fmt.(*pp).doPrintf":                    "fmt",
		"main.runSweep":                         "harness",
		"hash/fnv.(*sum64a).Write":              "other",
	} {
		if got := profLayer(fn); got != want {
			t.Errorf("profLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}
