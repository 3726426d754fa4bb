package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// clusterScenario builds one simulation over a variable shard count and
// renders a fingerprint of everything observable: the merged dispatch
// trace, every event firing (collected per shard, so recording is free
// of cross-goroutine writes, then merged by unique virtual time), and
// the final clock and step count. Each edge-case test asserts the
// fingerprint is byte-identical across shard counts — the cluster's
// core contract.
type clusterScenario struct {
	c     *Cluster
	trace []string
	recs  [][]string // per shard: "label@time", times unique by design
}

func newClusterScenario(shards int) *clusterScenario {
	s := &clusterScenario{c: NewCluster(shards), recs: make([][]string, shards)}
	s.c.SetTrace(func(name string, at uint64) {
		s.trace = append(s.trace, fmt.Sprintf("%s@%d", name, at))
	})
	return s
}

// rec returns a recorder confined to shard i's timeline.
func (s *clusterScenario) rec(i int, label string, at uint64) {
	s.recs[i] = append(s.recs[i], fmt.Sprintf("%s@%d", label, at))
}

func (s *clusterScenario) fingerprint(t *testing.T) string {
	t.Helper()
	if err := s.c.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	var all []string
	for _, r := range s.recs {
		all = append(all, r...)
	}
	// Order by (time, label): the relative order of equal-time records
	// on different shards is not observable from inside the recorders,
	// so the fingerprint must not depend on it.
	sort.Slice(all, func(i, j int) bool {
		li, ti, _ := strings.Cut(all[i], "@")
		lj, tj, _ := strings.Cut(all[j], "@")
		if len(ti) != len(tj) {
			return len(ti) < len(tj)
		}
		if ti != tj {
			return ti < tj
		}
		return li < lj
	})
	return fmt.Sprintf("trace:%s\nrecs:%s\nnow:%d steps:%d",
		strings.Join(s.trace, " "), strings.Join(all, " "), s.c.Now(), s.c.Steps())
}

// shardOf picks the owning engine, clamping to the shard count so the
// same build code runs one-sharded and many-sharded.
func (s *clusterScenario) shardOf(i int) *Engine {
	return s.c.Engine(i % s.c.Shards())
}

// tickChain schedules a self-rescheduling event chain on shard i: n
// firings spaced step cycles apart, starting at t0. Chains are how the
// scenarios keep a shard busy across many epochs without relying on
// coroutine slice lengths.
func (s *clusterScenario) tickChain(i int, label string, t0, step uint64, n int) {
	e := s.shardOf(i)
	var tick func()
	left := n
	at := t0
	tick = func() {
		s.rec(i%s.c.Shards(), label, at)
		left--
		if left > 0 {
			at += step
			e.ScheduleAt(at, tick)
		}
	}
	e.ScheduleAt(t0, tick)
}

// TestClusterEmptyShard: a shard with no entities at all must neither
// stall the barrier nor perturb the merged order.
func TestClusterEmptyShard(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		// Shards 0 and 2 get work; shard 1 (when present) stays empty.
		s.tickChain(0, "a", 100, 700, 10)
		s.tickChain(2, "b", 350, 900, 8)
		return s
	}
	serial := build(1).fingerprint(t)
	sharded := build(3).fingerprint(t)
	if serial != sharded {
		t.Fatalf("empty-shard run diverges:\nserial:  %s\nsharded: %s", serial, sharded)
	}
}

// TestClusterShardFinishesMidEpoch: one shard goes quiescent partway
// through an epoch while its peer keeps running for many more epochs;
// the finished shard must simply drop out of subsequent epochs.
func TestClusterShardFinishesMidEpoch(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		e := s.shardOf(1)
		clk := NewClock("short")
		co := e.NewCoro("short", func(ctx *Ctx) {
			ctx.Advance(450) // parks forever mid-first-epoch
			s.rec(1%shards, "done", ctx.Now())
		})
		e.UnparkOn(co, clk)
		s.tickChain(0, "long", 10, 800, 12) // ~10 epochs of work
		return s
	}
	serial := build(1).fingerprint(t)
	sharded := build(2).fingerprint(t)
	if serial != sharded {
		t.Fatalf("mid-epoch finish diverges:\nserial:  %s\nsharded: %s", serial, sharded)
	}
}

// TestClusterZeroLatencySameShardDelivery: a coroutine scheduling an
// event at its own current instant (zero delay, same shard) must see it
// fire at exactly that virtual time, sharded or not. Same-shard traffic
// is exempt from the cross-shard latency bound.
func TestClusterZeroLatencySameShardDelivery(t *testing.T) {
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(1000)
		e := s.shardOf(1)
		clk := NewClock("zero")
		co := e.NewCoro("zero", func(ctx *Ctx) {
			ctx.Advance(300)
			at := ctx.Now()
			ctx.Engine().ScheduleAt(at, func() { s.rec(1%shards, "fire", at) })
			ctx.Advance(300)
			s.rec(1%shards, "after", ctx.Now())
		})
		e.UnparkOn(co, clk)
		s.tickChain(0, "bg", 50, 900, 6)
		return s
	}
	serial := build(1).fingerprint(t)
	sharded := build(2).fingerprint(t)
	if serial != sharded {
		t.Fatalf("zero-latency delivery diverges:\nserial:  %s\nsharded: %s", serial, sharded)
	}
	if !strings.Contains(sharded, "fire@300") {
		t.Fatalf("zero-delay event did not fire at its scheduling instant: %s", sharded)
	}
}

// TestClusterInboxOnEpochBoundary: a cross-shard message whose delivery
// time is exactly cause + bound lands on the first cycle after the
// sending epoch — the boundary case of the lookahead rule. It must be
// injected at the barrier and fire at its exact virtual time, merged in
// the same position the serial engine runs it.
func TestClusterInboxOnEpochBoundary(t *testing.T) {
	const bound = 1000
	build := func(shards int) *clusterScenario {
		s := newClusterScenario(shards)
		s.c.Bound(bound)
		src, dst := s.shardOf(0), s.shardOf(1)
		clk := NewClock("sender")
		co := src.NewCoro("sender", func(ctx *Ctx) {
			at := ctx.Now() + bound // exactly the minimum legal distance
			ctx.Engine().ScheduleCrossAt(dst, at, func() { s.rec(1%shards, "inbox", at) })
			ctx.Advance(50)
		})
		src.UnparkOn(co, clk)
		// Competing local activity around the delivery instant on both
		// shards, so a mis-merged injection changes the fingerprint.
		s.tickChain(0, "s0", 500, 250, 6)
		s.tickChain(1, "s1", 600, 200, 8)
		return s
	}
	serial := build(1).fingerprint(t)
	sharded := build(2).fingerprint(t)
	if serial != sharded {
		t.Fatalf("boundary inbox diverges:\nserial:  %s\nsharded: %s", serial, sharded)
	}
	if !strings.Contains(sharded, "inbox@1000") {
		t.Fatalf("boundary message did not fire at cause+bound: %s", sharded)
	}
}

// TestClusterCoroutinesSwitchGoroutines: a coroutine of a sharded
// engine is resumed by whichever goroutine runs its shard's epoch — the
// coordinator when its shard is the only one active, the shard's worker
// when two are. Two coroutines with overlapping duty cycles make each
// see both epoch shapes many times over; the run must match the serial
// schedule exactly, and -race must find the handoffs between the
// goroutines ordered.
func TestClusterCoroutinesSwitchGoroutines(t *testing.T) {
	const (
		period = 3000
		burst  = 20 // Advance(100)+Reschedule rounds per duty cycle
		cycles = 4
	)
	build := func(shards int) (*clusterScenario, *[2][2]bool) {
		s := newClusterScenario(shards)
		s.c.Bound(500)
		var shapes [2][2]bool // [coroutine][multi-shard epoch]
		for i := 0; i < 2; i++ {
			i := i
			e := s.shardOf(i)
			clk := NewClock(fmt.Sprintf("c%d", i))
			offset := uint64(i) * period / 2
			var co *Coro
			co = e.NewCoro(fmt.Sprintf("duty%d", i), func(ctx *Ctx) {
				for k := uint64(0); k < cycles; k++ {
					for j := 0; j < burst; j++ {
						multi := 0
						if len(s.c.ran) > 1 {
							multi = 1
						}
						shapes[i][multi] = true
						ctx.Advance(100)
						ctx.Reschedule()
					}
					wake := offset + (k+1)*period
					e.ScheduleAt(wake, func() {
						clk.AdvanceTo(wake)
						e.UnparkOn(co, clk)
					})
					ctx.Park()
				}
			})
			clk.AdvanceTo(offset)
			e.UnparkOn(co, clk)
		}
		return s, &shapes
	}
	serial, _ := build(1)
	want := serial.fingerprint(t)
	sharded, shapes := build(2)
	if got := sharded.fingerprint(t); got != want {
		t.Fatalf("2-shard run diverges from serial:\nserial:  %s\nsharded: %s", want, got)
	}
	for i, sh := range shapes {
		if !sh[0] || !sh[1] {
			t.Fatalf("coroutine %d ran in single-shard epochs: %t, in multi-shard epochs: %t; want both", i, sh[0], sh[1])
		}
	}
}
