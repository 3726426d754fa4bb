package sim

import (
	"fmt"
	"math"
	"testing"
)

// benchEngineStep measures raw engine throughput with n concurrent
// runnable coroutines: how many scheduling decisions the host executes
// per second. The per-decision cost of the ready-structure dominates as
// n grows.
func benchEngineStep(b *testing.B, n int) {
	b.Helper()
	e := NewEngine()
	for i := 0; i < n; i++ {
		clk := NewClock("c")
		co := e.NewCoro("w", func(ctx *Ctx) {
			for {
				ctx.Advance(10)
				ctx.Reschedule()
			}
		})
		e.UnparkOn(co, clk)
	}
	e.MaxSteps = uint64(b.N) + uint64(n)*4
	b.ResetTimer()
	_ = e.Run(math.MaxUint64)
}

// BenchmarkEngineSchedulingDecision measures raw engine throughput: how
// many coroutine scheduling decisions the host executes per second.
func BenchmarkEngineSchedulingDecision(b *testing.B) { benchEngineStep(b, 4) }

// BenchmarkEngineStep64 exercises the ready structure at one simulated
// MPM's worth of active contexts.
func BenchmarkEngineStep64(b *testing.B) { benchEngineStep(b, 64) }

// BenchmarkEngineStep256 is the ISSUE 1 acceptance microbenchmark: a
// large multiprogrammed machine's worth of runnable contexts.
func BenchmarkEngineStep256(b *testing.B) { benchEngineStep(b, 256) }

// BenchmarkEventHeap measures timer scheduling throughput.
func BenchmarkEventHeap(b *testing.B) {
	e := NewEngine()
	for i := 0; i < b.N; i++ {
		e.ScheduleAt(uint64(i%1024), func() {})
		if i%1024 == 1023 {
			_ = e.Run(uint64(i))
		}
	}
}

// BenchmarkEpochBarrier measures the sharded logged path end to end:
// two shards each firing one self-rescheduling event per epoch, so
// every b.N steps crosses action logging, the barrier merge and the
// pooled-buffer resets. With warm pools the steady state is
// allocation-free; CI asserts the allocs/op budget on this benchmark
// and the engine-step ones with -benchmem.
func BenchmarkEpochBarrier(b *testing.B) {
	c := NewCluster(2)
	c.Bound(512)
	for s := 0; s < 2; s++ {
		e := c.Engine(s)
		at := uint64(s + 1)
		var tick func()
		tick = func() {
			at += 512
			e.ScheduleAt(at, tick)
		}
		e.ScheduleAt(at, tick)
	}
	c.MaxSteps = uint64(b.N) + 64
	b.ResetTimer()
	_ = c.Run(math.MaxUint64)
}

// BenchmarkClusterScaling measures sharded engine throughput at 1, 2, 4
// and 8 shards on two topologies. unbound16x4 is 16 MPMs of 4 runnable
// coroutines with no cross-shard bound: the whole run is one epoch, so
// it measures raw parallel stepping. bound64x32 is 64 MPMs of 32
// coroutines under a 512-cycle bound; each coroutine parks between
// bursts for a stretch staggered by MPM, so some epochs find whole
// shards idle, and every epoch takes the logged path through the
// barrier merge and the pooled-buffer resets. Each sub-benchmark
// builds its cluster once and warms it until the pools stop growing;
// every timed run continues that cluster. The step guard may overshoot
// MaxSteps by up to the shard count, so steps/s counts the decisions
// actually made, and ns/op is not a per-step cost. CI asserts 0
// allocs/op on every sub-benchmark.
func BenchmarkClusterScaling(b *testing.B) {
	for _, tc := range []struct {
		name        string
		mpms, coros int
		bound       uint64
	}{
		{"unbound16x4", 16, 4, 0},
		{"bound64x32", 64, 32, 512},
	} {
		for _, shards := range []int{1, 2, 4, 8} {
			var c *Cluster
			b.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(b *testing.B) {
				if c == nil {
					c = scalingCluster(tc.mpms, tc.coros, shards, tc.bound)
					c.MaxSteps = 1 << 20
					_ = c.Run(math.MaxUint64)
				}
				base := clusterDecisions(c)
				c.MaxSteps = base + uint64(b.N)
				b.ResetTimer()
				_ = c.Run(math.MaxUint64)
				b.StopTimer()
				b.ReportMetric(float64(clusterDecisions(c)-base)/b.Elapsed().Seconds(), "steps/s")
			})
		}
	}
}

// scalingCluster spreads mpms MPMs of coros coroutines round-robin over
// shards. Each coroutine runs bursts of 48 scheduling decisions; under
// a bound it then parks for two to five epochs, by MPM, and re-arms its
// wakeup through a closure built once, so the steady state does not
// allocate.
func scalingCluster(mpms, coros, shards int, bound uint64) *Cluster {
	c := NewCluster(shards)
	if bound > 0 {
		c.Bound(bound)
	}
	for i := 0; i < mpms; i++ {
		e := c.Engine(i % shards)
		park := 2*bound + uint64(i%7)*bound/2
		for j := 0; j < coros; j++ {
			clk := NewClock("c")
			var co *Coro
			wake := func() { e.UnparkOn(co, clk) }
			co = e.NewCoro("w", func(ctx *Ctx) {
				for {
					for k := 0; k < 48; k++ {
						ctx.Advance(10)
						ctx.Reschedule()
					}
					if park > 0 {
						e.ScheduleAfter(park, wake)
						ctx.Park()
					}
				}
			})
			e.UnparkOn(co, clk)
		}
	}
	return c
}

// clusterDecisions sums the shards' raw scheduling decisions, the
// count MaxSteps bounds.
func clusterDecisions(c *Cluster) uint64 {
	var n uint64
	for _, e := range c.engines {
		n += e.steps
	}
	return n
}

// BenchmarkRand measures the workload PRNG.
func BenchmarkRand(b *testing.B) {
	r := NewRand(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
