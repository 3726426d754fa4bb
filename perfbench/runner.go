package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workerTimeout bounds one worker process; the largest takes a few
// seconds.
const workerTimeout = 120 * time.Second

// runner runs one workload: a fixed number of measured passes, sized
// from the seconds (workloadDef.passes). A pass runs every chunk of the workload once, each chunk in a fresh
// worker process with a fixed unit list, so every pass does identical
// work and the leak each unit leaves behind is the same in every pass.
// An untraced pass then runs the workload's set-up-only workers, which
// add set-up time samples and nothing else.
type runner struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workDir  string
	log      io.Writer
	// units and chunks, when set, shrink a pass to chunks workers of
	// units units each (the short test); ops always runs its full mix,
	// which its fingerprint covers.
	units, chunks int

	self    string
	crashes map[int][]int // per chunk, units that crashed their worker
	// recorded holds, per chunk, the units expected/ records as
	// crashing: only a crash there can be a known defect.
	recorded map[int][]int

	attempted, failed int
	unknown           []string       // failures not recorded as known
	known             map[string]int // known-defect failures by reproduction
	setups            []float64
	profiles          []string
	records           map[int]map[int]string // -record: per chunk, per unit
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// jobOut is what one worker process left behind.
type jobOut struct {
	res     *workerResult
	started []int
	fails   []string // failures of a check
	knowns  []string // failures by a known defect
	records map[int]string
	crashed bool
	stderr  string
}

func (d *runner) runJob(spec workerSpec) (jobOut, error) {
	out := jobOut{records: make(map[int]string)}
	b, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), workerTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.self, "-worker", string(b))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return out, err
	}
	if err := cmd.Start(); err != nil {
		return out, fmt.Errorf("start worker: %w", err)
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		kind, rest, _ := strings.Cut(sc.Text(), " ")
		switch kind {
		case "u":
			if i, err := strconv.Atoi(rest); err == nil {
				out.started = append(out.started, i)
			}
		case "f":
			out.fails = append(out.fails, rest)
		case "k":
			out.knowns = append(out.knowns, rest)
		case "x":
			is, fields, _ := strings.Cut(rest, " ")
			if i, err := strconv.Atoi(is); err == nil {
				out.records[i] = fields
			}
		case "r":
			var r workerResult
			if err := json.Unmarshal([]byte(rest), &r); err == nil {
				out.res = &r
			}
		}
	}
	// Drain anything the scanner refused so the worker never blocks.
	_, _ = io.Copy(io.Discard, stdout)
	werr := cmd.Wait()
	out.stderr = stderr.String()
	if werr != nil || out.res == nil {
		out.crashed = true
		out.res = nil
	}
	return out, nil
}

// account adds a worker's units and failures to the run's totals.
func (d *runner) account(spec workerSpec, jo jobOut, indexed bool) {
	d.unknown = append(d.unknown, jo.fails...)
	for _, k := range jo.knowns {
		d.known[classifyFailure(k).Repro]++
	}
	if !jo.crashed {
		d.attempted += jo.res.Units
		d.failed += jo.res.Failed
		return
	}
	// Units announced before the crash ran to the end; the last one
	// announced crashed the process. A worker that announced none lost
	// every unit it had.
	if indexed && len(jo.started) > 0 {
		d.attempted += len(jo.started)
		d.failed += len(jo.fails) + len(jo.knowns) + 1
	} else {
		n := spec.To - spec.From
		for _, u := range spec.Skip {
			if u >= spec.From && u < spec.To {
				n--
			}
		}
		d.attempted += n
		d.failed += n
	}
	where := fmt.Sprintf("%s chunk %d", spec.Workload, spec.Chunk)
	located := indexed && len(jo.started) > 0
	if located {
		where += fmt.Sprintf(" unit %d", jo.started[len(jo.started)-1])
	}
	kd := classifyFailure(jo.stderr)
	switch {
	case kd != nil && located && d.crashRecorded(spec.Chunk, jo.started[len(jo.started)-1]):
		d.known[kd.Repro]++
		fmt.Fprintf(d.log, "known defect: %s crashed (%q; reproduce with %s)\n", where, kd.Signature, kd.Repro)
	case kd != nil:
		d.unknown = append(d.unknown, fmt.Sprintf("%s: worker crashed with %q where expected/ records no crash", where, kd.Signature))
	default:
		d.unknown = append(d.unknown, fmt.Sprintf("%s: worker failed: %s", where, lastLines(jo.stderr, 3)))
	}
}

// crashRecorded reports whether unit u of a chunk is recorded as
// crashing. While expected values are being recorded every crash of a
// known defect is accepted: that is how a crash gets recorded.
func (d *runner) crashRecorded(chunk, u int) bool {
	return d.records != nil || slices.Contains(d.recorded[chunk], u)
}

// runChunk runs one chunk: every unit known to crash alone in its own
// worker first, then the rest in one worker, restarting past any new
// crash. It returns the results of the workers that finished the chunk's
// units (not the crash-alone ones).
func (d *runner) runChunk(base workerSpec) ([]*workerResult, error) {
	def := workloads[base.Workload]
	for _, u := range d.crashes[base.Chunk] {
		if u < base.From || u >= base.To {
			continue
		}
		alone := base
		alone.From, alone.To, alone.Trace, alone.Profile = u, u+1, false, ""
		jo, err := d.runJob(alone)
		if err != nil {
			return nil, err
		}
		d.account(alone, jo, def.indexed)
		d.keepRecords(base.Chunk, jo)
	}
	spec := base
	spec.Skip = append([]int(nil), d.crashes[base.Chunk]...)
	var out []*workerResult
	for spec.From < spec.To {
		if spec.Trace {
			spec.Profile = filepath.Join(d.workDir, fmt.Sprintf("%s-%d-%d.pprof", spec.Workload, os.Getpid(), len(d.profiles)))
			d.profiles = append(d.profiles, spec.Profile)
		}
		jo, err := d.runJob(spec)
		if err != nil {
			return nil, err
		}
		d.account(spec, jo, def.indexed)
		d.keepRecords(base.Chunk, jo)
		if !jo.crashed {
			return append(out, jo.res), nil
		}
		if !def.indexed || len(jo.started) == 0 {
			return out, nil
		}
		u := jo.started[len(jo.started)-1]
		d.crashes[base.Chunk] = append(d.crashes[base.Chunk], u)
		spec.From = u + 1
	}
	return out, nil
}

func (d *runner) keepRecords(chunk int, jo jobOut) {
	if d.records == nil {
		return
	}
	if d.records[chunk] == nil {
		d.records[chunk] = make(map[int]string)
	}
	for i, r := range jo.records {
		d.records[chunk][i] = r
	}
}

// passAgg sums the finished workers of one pass.
type passAgg struct {
	units, workers, goroutines int
	wall, cpu, allocs, bytes   float64
	retained                   []float64
	layer                      map[string]float64
}

func (d *runner) pass(trace bool) (passAgg, error) {
	def := workloads[d.workload]
	chunk, chunks := def.chunk, def.chunks
	if d.units > 0 && def.indexed {
		chunk = min(chunk, d.units)
	}
	if d.chunks > 0 {
		chunks = min(chunks, d.chunks)
	}
	agg := passAgg{layer: make(map[string]float64)}
	for c := 0; c < chunks; c++ {
		rs, err := d.runChunk(workerSpec{Workload: d.workload, Seed: d.seed, Chunk: c, From: 0, To: chunk, Trace: trace})
		if err != nil {
			return agg, err
		}
		for _, r := range rs {
			agg.units += r.Units
			agg.workers++
			agg.goroutines += r.Goroutines
			agg.wall += r.WallS
			agg.cpu += r.CPUS
			agg.allocs += float64(r.Allocs)
			agg.bytes += float64(r.AllocBytes)
			agg.retained = append(agg.retained, r.RetainedMB)
			for k, v := range r.Layer {
				agg.layer[k] += v
			}
			d.setups = append(d.setups, r.SetupS)
		}
	}
	if trace {
		return agg, nil
	}
	samplers := def.samplers
	if d.units > 0 {
		samplers = min(samplers, 1)
	}
	for j := 0; j < samplers; j++ {
		c := j % chunks
		spec := workerSpec{Workload: d.workload, Seed: d.seed, Chunk: c, From: 0, To: chunk, Skip: d.crashes[c], SetupOnly: true}
		jo, err := d.runJob(spec)
		if err != nil {
			return agg, err
		}
		if jo.crashed {
			d.unknown = append(d.unknown, fmt.Sprintf("%s chunk %d: set-up worker failed: %s", d.workload, c, lastLines(jo.stderr, 3)))
			continue
		}
		d.setups = append(d.setups, jo.res.SetupS)
	}
	return agg, nil
}

func (a passAgg) unitsPerS() float64 { return float64(a.units) / a.wall }

// endToEnd derives the end-to-end metrics of one pass.
func (a passAgg) endToEnd() map[string]float64 {
	u := float64(a.units)
	return map[string]float64{
		"units_per_s":       u / a.wall,
		"cpu_ms_per_unit":   1000 * a.cpu / u,
		"allocs_per_unit":   a.allocs / u,
		"alloc_kb_per_unit": a.bytes / 1024 / u,
		"retained_mb":       mean(a.retained),
	}
}

var endToEndUnits = map[string]string{
	"setup_s": "s", "units_per_s": "1/s", "cpu_ms_per_unit": "ms",
	"allocs_per_unit": "count", "alloc_kb_per_unit": "KiB", "retained_mb": "MiB",
}

func (d *runner) run() (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	d.self = self
	d.crashes = make(map[int][]int)
	d.recorded = make(map[int][]int)
	d.known = make(map[string]int)
	fmt.Fprintf(d.log, "host_cpus=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%t\n",
		runtime.NumCPU(), loadThreads(), runtime.Version(), d.workload, d.seed, d.seconds, d.trace)
	if d.trace {
		if err := os.MkdirAll(d.workDir, 0o755); err != nil {
			return nil, err
		}
		defer func() {
			for _, p := range d.profiles {
				os.Remove(p)
			}
		}()
	}

	// Units recorded as crashing run alone from the first pass on, so
	// every measured worker runs its whole fixed unit list.
	if crashing := workloads[d.workload].crashing; crashing != nil {
		for c := 0; c < workloads[d.workload].chunks; c++ {
			if d.recorded[c], err = crashing(d.seed, c); err != nil {
				return nil, err
			}
			d.crashes[c] = slices.Clone(d.recorded[c])
		}
	}
	var plain, traced []passAgg
	for n := workloads[d.workload].passes(d.seconds, d.trace); len(plain) < n; {
		p, err := d.pass(false)
		if err != nil {
			return nil, err
		}
		if p.units == 0 {
			return nil, fmt.Errorf("a pass finished no units")
		}
		plain = append(plain, p)
		e := p.endToEnd()
		fmt.Fprintf(d.log, "pass %d: units=%d units_per_s=%.6g cpu_ms_per_unit=%.6g\n", len(plain), p.units, e["units_per_s"], e["cpu_ms_per_unit"])
		if d.trace {
			if p, err = d.pass(true); err != nil {
				return nil, err
			}
			if p.units == 0 {
				return nil, fmt.Errorf("a traced pass finished no units")
			}
			traced = append(traced, p)
		}
	}

	res := &result{Attempted: d.attempted, Failed: d.failed, Metrics: make(map[string]metric)}
	res.Correct = len(d.unknown) == 0
	for _, u := range d.unknown {
		fmt.Fprintf(d.log, "FAILED: %s\n", u)
	}
	for repro, n := range d.known {
		fmt.Fprintf(d.log, "known defect failures: %d (reproduce with %s)\n", n, repro)
	}

	e2e := medianOf(plain, passAgg.endToEnd)
	e2e["setup_s"] = median(d.setups)
	fmt.Fprintf(d.log, "passes=%d workers_per_pass=%d units_per_pass=%d\n", len(plain), plain[0].workers, plain[0].units)
	printMetrics(d.log, "end_to_end", e2e, endToEndUnits)
	if !d.trace {
		for k, v := range e2e {
			res.Metrics[k] = metric{v, endToEndUnits[k]}
		}
		return res, nil
	}

	layer := medianOf(traced, passAgg.perLayer)
	prof, err := profRollup(d.profiles)
	if err != nil {
		return nil, err
	}
	for k, v := range prof {
		layer[k] = v
	}
	layer["trace.overhead_ratio"] = median(mapf(traced, passAgg.unitsPerS)) / median(mapf(plain, passAgg.unitsPerS))
	units := perLayerUnits()
	printMetrics(d.log, "per_layer", layer, units)
	for k, v := range layer {
		res.Metrics[k] = metric{v, units[k]}
	}
	return res, nil
}

func printMetrics(w io.Writer, title string, m map[string]float64, units map[string]string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s:\n", title)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", k, m[k], units[k])
	}
}

// medianOf takes the per-metric median over passes.
func medianOf(ps []passAgg, f func(passAgg) map[string]float64) map[string]float64 {
	all := make(map[string][]float64)
	for _, p := range ps {
		for k, v := range f(p) {
			all[k] = append(all[k], v)
		}
	}
	out := make(map[string]float64, len(all))
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}

func mapf(ps []passAgg, f func(passAgg) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// per divides, 0 when the divisor is 0 (a layer the workload does not
// reach).
func per(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) {
		return 0
	}
	return a / b
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// A Go panic's first line names it; prefer it over the stack.
	for _, l := range lines {
		if strings.HasPrefix(l, "panic: ") || strings.HasPrefix(l, "fatal error: ") || strings.HasPrefix(l, "perfbench: ") {
			return l
		}
	}
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}
