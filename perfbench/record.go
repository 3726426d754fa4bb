package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"vpp/internal/ck"
)

// recordExpected regenerates the expected fingerprints of every input a
// run can draw — all sweepSpace scenario seeds, all forkPlans
// continuations, the canned fleet and the ops mix — by running them in
// record mode, and writes them to dir (normally perfbench/expected).
// Run it only for a change that is meant to alter virtual time, and say
// so in that change.
func recordExpected(dir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	d := &runner{self: self, log: os.Stderr, crashes: make(map[int][]int), known: make(map[string]int),
		records: make(map[int]map[int]string)}

	// Sweep: the whole scenario space, in chunks, crash-isolated.
	var sweep []string
	for c := 0; c*sweepChunk < sweepSpace; c++ {
		spec := workerSpec{Workload: "sweep", Chunk: c, From: 0, To: min(sweepChunk, sweepSpace-c*sweepChunk), Record: true}
		if _, err := d.runChunk(spec); err != nil {
			return err
		}
		for i := spec.From; i < spec.To; i++ {
			r, ok := d.records[c][i]
			if !ok {
				r = fmt.Sprintf("%d crash", recordSweepSeed(c, i))
			}
			sweep = append(sweep, r)
		}
	}
	if len(d.unknown) > 0 {
		return fmt.Errorf("sweep: %s", d.unknown[0])
	}
	hdr := "# scenario seed, then: oracle verdict, final virtual clock, dispatch-schedule hash;\n" +
		"# or \"crash\" for a seed that crashes the process with a known defect.\n"
	if err := writeLines(filepath.Join(dir, "sweep.txt"), hdr, sweep); err != nil {
		return err
	}

	// Fork: every continuation plan, and the fleet: one canned run.
	for _, job := range []struct {
		workload, file, hdr string
		to                  int
	}{
		{"fork", "fork.txt", "# continuation plan, then its dispatch count, final clock, memory checksum and dirtied pages.\n", forkPlans},
		{"fleet", "fleet.txt", "# the canned fleet's migrations, blackout min/mean/max (cycles), final clock and steps.\n", 1},
	} {
		d.records, d.crashes = map[int]map[int]string{}, map[int][]int{}
		if _, err := d.runChunk(workerSpec{Workload: job.workload, From: 0, To: job.to, Record: true}); err != nil {
			return err
		}
		if len(d.unknown) > 0 || len(d.records[0]) != job.to {
			return fmt.Errorf("%s: recorded %d of %d units: %v", job.workload, len(d.records[0]), job.to, d.unknown)
		}
		var lines []string
		for i := 0; i < job.to; i++ {
			lines = append(lines, d.records[0][i])
		}
		if err := writeLines(filepath.Join(dir, job.file), job.hdr, lines); err != nil {
			return err
		}
	}

	// Ops: the Table 2 rows and the timed phase's per-kind tally.
	t2, err := ck.MeasureTable2(ck.Config{})
	if err != nil {
		return err
	}
	d.records, d.crashes = map[int]map[int]string{}, map[int][]int{}
	if _, err := d.runChunk(workerSpec{Workload: "ops", From: 0, To: 1, Record: true}); err != nil {
		return err
	}
	if len(d.unknown) > 0 || len(d.records[0]) != numOpKinds {
		return fmt.Errorf("ops: recorded %d of %d call kinds: %v", len(d.records[0]), numOpKinds, d.unknown)
	}
	ops := opsExpected{Table2: table2Rows(t2), Tally: make(map[string]string)}
	for _, r := range d.records[0] {
		name, tally, _ := strings.Cut(r, " ")
		ops.Tally[name] = tally
	}
	b, err := json.MarshalIndent(ops, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "ops.json"), append(b, '\n'), 0o644)
}

// recordSweepSeed is the scenario seed of record-mode sweep unit i of
// chunk c: the chunks tile [1, sweepSpace].
func recordSweepSeed(c, i int) uint64 { return uint64(1 + c*sweepChunk + i) }

func writeLines(path, header string, lines []string) error {
	sort.SliceStable(lines, func(i, j int) bool { return leadNum(lines[i]) < leadNum(lines[j]) })
	return os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644)
}

func leadNum(s string) int {
	var n int
	fmt.Sscanf(s, "%d", &n)
	return n
}
