package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSingleCoroAdvances(t *testing.T) {
	e := NewEngine()
	clk := NewClock("cpu0")
	var end uint64
	co := e.NewCoro("worker", func(ctx *Ctx) {
		for i := 0; i < 10; i++ {
			ctx.Advance(5)
		}
		end = ctx.Now()
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if end != 50 {
		t.Fatalf("end time = %d, want 50", end)
	}
	if !co.Done() {
		t.Fatal("coro not done")
	}
}

func TestTwoClocksInterleaveByTime(t *testing.T) {
	e := NewEngine()
	fast := NewClock("fast")
	slow := NewClock("slow")
	var order []string
	mk := func(name string, cost uint64, clk *Clock) {
		co := e.NewCoro(name, func(ctx *Ctx) {
			for i := 0; i < 4; i++ {
				ctx.Advance(cost)
				order = append(order, name)
			}
		})
		e.UnparkOn(co, clk)
	}
	mk("a", 10, fast)
	mk("b", 25, slow)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	// Both coros fit inside one grid slice, so each runs its slice to
	// completion in activation order: slice boundaries are intrinsic to
	// each coroutine's own trajectory, never induced by a neighbour's
	// clock (that coupling would make the interleaving depend on which
	// entities share the engine, breaking shard-count invariance).
	want := []string{"a", "a", "a", "a", "b", "b", "b", "b"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestParkUnpark(t *testing.T) {
	e := NewEngine()
	c0 := NewClock("cpu0")
	c1 := NewClock("cpu1")
	var got uint64
	sleeper := e.NewCoro("sleeper", func(ctx *Ctx) {
		ctx.Park()
		got = ctx.Now()
	})
	waker := e.NewCoro("waker", func(ctx *Ctx) {
		ctx.Advance(100)
		c1.AdvanceTo(ctx.Now())
		ctx.Engine().UnparkOn(sleeper, c1)
	})
	e.UnparkOn(sleeper, c1)
	e.UnparkOn(waker, c0)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if got < 100 {
		t.Fatalf("sleeper woke at %d, want >= 100", got)
	}
}

func TestEventsFireInOrder(t *testing.T) {
	e := NewEngine()
	var fired []uint64
	e.ScheduleAt(30, func() { fired = append(fired, 30) })
	e.ScheduleAt(10, func() { fired = append(fired, 10) })
	e.ScheduleAt(20, func() { fired = append(fired, 20) })
	e.ScheduleAt(10, func() { fired = append(fired, 11) }) // same time, later seq
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	want := []uint64{10, 11, 20, 30}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestEventInterleavesWithCoro(t *testing.T) {
	e := NewEngine()
	clk := NewClock("cpu0")
	var at uint64
	e.ScheduleAt(15, func() { at = e.Now() })
	var atDuringSlice uint64
	co := e.NewCoro("w", func(ctx *Ctx) {
		ctx.Advance(20) // crosses 15 inside one slice; no induced yield
		atDuringSlice = at
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	// A pending event does not split a running slice: the coroutine was
	// activated at time 0, before the event's time, so the whole slice
	// orders before it. The event still fires at its own time once the
	// engine regains control.
	if atDuringSlice != 0 {
		t.Fatalf("event fired inside the slice (saw at=%d)", atDuringSlice)
	}
	if at != 15 {
		t.Fatalf("event fired at %d, want 15", at)
	}
}

// TestEventSplitsOwnSchedulersSlice pins the intrinsic-yield rule: when
// the running coroutine itself schedules an event below its horizon,
// the shrink point comes from its own code, so yielding there is
// deterministic under any sharding — and the event fires before the
// coroutine passes it.
func TestEventSplitsOwnSchedulersSlice(t *testing.T) {
	e := NewEngine()
	clk := NewClock("cpu0")
	var at uint64
	var sawEventBefore bool
	co := e.NewCoro("w", func(ctx *Ctx) {
		ctx.Advance(10)
		e.ScheduleAt(15, func() { at = e.Now() })
		ctx.Advance(10) // crosses 15; must yield so the event fires at 15
		sawEventBefore = at == 15
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != nil {
		t.Fatal(err)
	}
	if !sawEventBefore {
		t.Fatalf("event fired at %d, want 15 before coro passed it", at)
	}
}

func TestRunUntilBound(t *testing.T) {
	e := NewEngine()
	clk := NewClock("cpu0")
	n := 0
	co := e.NewCoro("w", func(ctx *Ctx) {
		for {
			ctx.Advance(10)
			n++
		}
	})
	e.UnparkOn(co, clk)
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	// The bound gates slice starts, not slice contents: the coroutine
	// activated at 0 runs its whole first grid slice, then the next
	// slice would start past 100 and Run returns.
	if n != 6553 {
		t.Fatalf("ran %d steps, want one full grid slice (6553)", n)
	}
	if e.Now() > 100 {
		t.Fatalf("Now = %d after Run(100), want a schedule point <= 100", e.Now())
	}
}

func TestMaxStepsGuard(t *testing.T) {
	e := NewEngine()
	e.MaxSteps = 50
	clk := NewClock("cpu0")
	co := e.NewCoro("spin", func(ctx *Ctx) {
		for {
			ctx.Advance(1)
			ctx.Reschedule()
		}
	})
	e.UnparkOn(co, clk)
	if err := e.Run(math.MaxUint64); err != ErrMaxSteps {
		t.Fatalf("err = %v, want ErrMaxSteps", err)
	}
}

func TestUnparkRunnablePanics(t *testing.T) {
	e := NewEngine()
	clk := NewClock("cpu0")
	co := e.NewCoro("w", func(ctx *Ctx) {})
	e.UnparkOn(co, clk)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.UnparkOn(co, clk)
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var trace []int
		for i := 0; i < 8; i++ {
			i := i
			clk := NewClock("cpu")
			co := e.NewCoro("w", func(ctx *Ctx) {
				for j := 0; j < 5; j++ {
					ctx.Advance(uint64(3 + i%4))
					trace = append(trace, i)
				}
			})
			e.UnparkOn(co, clk)
		}
		if err := e.Run(math.MaxUint64); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func TestClockNeverMovesBackward(t *testing.T) {
	c := NewClock("x")
	c.AdvanceTo(100)
	c.AdvanceTo(50)
	if c.Now() != 100 {
		t.Fatalf("clock = %d, want 100", c.Now())
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRand(1).Uint64() == NewRand(2).Uint64() {
		t.Fatal("different seeds collided on first draw")
	}
}

func TestRandIntnRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		if n == 0 {
			return true
		}
		r := NewRand(seed)
		for i := 0; i < 32; i++ {
			v := r.Intn(int(n))
			if v < 0 || v >= int(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		p := NewRand(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEventHeapProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var h eventHeap
		for i, tm := range times {
			h.push(&event{at: uint64(tm), seq: uint64(i)})
		}
		prev := uint64(0)
		for len(h) > 0 {
			ev := h.pop()
			if ev.at < prev {
				return false
			}
			prev = ev.at
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// recoverRun runs e and returns whatever Run panicked with (nil when it
// returned normally).
func recoverRun(e *Engine) (r any) {
	defer func() { r = recover() }()
	_ = e.Run(math.MaxUint64)
	return nil
}

// TestCoroPanicPropagates: a panic in a coroutine body — here raised
// after the body has yielded and been resumed — surfaces from
// Engine.Run on the caller's goroutine with its original value.
func TestCoroPanicPropagates(t *testing.T) {
	type boom struct{ n int }
	e := NewEngine()
	var ran bool
	bomb := e.NewCoro("bomb", func(ctx *Ctx) {
		ctx.Reschedule()
		ctx.Advance(2 * gridQuantum)
		panic(boom{7})
	})
	other := e.NewCoro("other", func(ctx *Ctx) {
		ctx.Advance(10)
		ran = true
	})
	e.UnparkOn(bomb, NewClock("c0"))
	e.UnparkOn(other, NewClock("c1"))
	r := recoverRun(e)
	if b, ok := r.(boom); !ok || b.n != 7 {
		t.Fatalf("Run panicked with %#v, want boom{7}", r)
	}
	if !ran {
		t.Fatal("the other coroutine never ran before the panic")
	}
}
