package main

import (
	"bufio"
	"embed"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Expected virtual-time fingerprints, kept with the benchmark. A
// simulator change that only makes it faster leaves them all unchanged.
// `perfbench -record DIR` regenerates them (see NOTES.md).
//
//go:embed expected
var expectedFS embed.FS

// knownDefect is a failure recorded with the benchmark: a unit whose
// worker crashed, or whose recorded oracle failure recurred, with text
// containing Signature counts as a failed unit, and the run stays
// correct. Each is a defect of the simulator, kept here for the change
// that fixes it (NOTES.md).
type knownDefect struct {
	Signature string
	Repro     string
}

var knownDefects = []knownDefect{
	{Signature: "ck: dispatch of running thread", Repro: "go run ./cmd/cksim -seed 76"},
	{Signature: "dsm: ping-pong stalled", Repro: "go run ./cmd/cksim -seed 1346"},
}

// classifyFailure returns the known defect a crash's standard error or
// a failure's text shows, or nil.
func classifyFailure(text string) *knownDefect {
	for i, d := range knownDefects {
		if strings.Contains(text, d.Signature) {
			return &knownDefects[i]
		}
	}
	return nil
}

func readLines(name string, fn func(fields []string) error) error {
	f, err := expectedFS.Open("expected/" + name)
	if err != nil {
		return fmt.Errorf("expected values: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := fn(strings.Fields(line)); err != nil {
			return fmt.Errorf("expected/%s:%d: %w", name, n, err)
		}
	}
	return sc.Err()
}

// expectedSweep maps a scenario seed to its fingerprint
// ("<verdict> <final clock> <hash>"), or to "crash" for a seed that
// crashes the process with a known defect.
func expectedSweep() (map[uint64]string, error) {
	m := make(map[uint64]string, sweepSpace)
	err := readLines("sweep.txt", func(f []string) error {
		seed, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil || len(f) < 2 {
			return fmt.Errorf("bad row %q", strings.Join(f, " "))
		}
		if f[1] == "crash" {
			m[seed] = "crash"
		} else {
			m[seed] = strings.Join(f[1:], " ")
		}
		return nil
	})
	return m, err
}

// expectedFork maps a continuation plan to its fingerprint.
func expectedFork() (map[int]string, error) {
	m := make(map[int]string, forkPlans)
	err := readLines("fork.txt", func(f []string) error {
		id, err := strconv.Atoi(f[0])
		if err != nil {
			return fmt.Errorf("bad row %q", strings.Join(f, " "))
		}
		m[id] = strings.Join(f[1:], " ")
		return nil
	})
	return m, err
}

// expectedFleet is the canned fleet's fingerprint.
func expectedFleet() (string, error) {
	var fp string
	err := readLines("fleet.txt", func(f []string) error {
		fp = strings.Join(f, " ")
		return nil
	})
	return fp, err
}

// opsExpected holds the Table 2 rows (µs) the ops mix is compared with,
// and the per-call-kind tally of a worker's timed phase.
type opsExpected struct {
	Table2 map[string]float64
	Tally  map[string]string
}

func expectedOps() (opsExpected, error) {
	var e opsExpected
	b, err := expectedFS.ReadFile("expected/ops.json")
	if err != nil {
		return e, fmt.Errorf("expected values: %w", err)
	}
	if err := json.Unmarshal(b, &e); err != nil {
		return e, fmt.Errorf("expected/ops.json: %w", err)
	}
	return e, nil
}

// splitmix is the SplitMix64 finalizer: it spreads a workload seed over
// the input space.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
