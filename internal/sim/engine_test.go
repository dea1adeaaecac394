package sim

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestScheduleOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("events at same time not FIFO: %v", order)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	var sawAt Time
	e.After(100, func() {
		sawAt = e.Now()
		e.After(50, func() { sawAt = e.Now() })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt != 150 {
		t.Fatalf("nested After fired at %d, want 150", sawAt)
	}
}

func TestSchedulePastClamped(t *testing.T) {
	e := NewEngine(1)
	var fired Time = -1
	e.Schedule(100, func() {
		e.Schedule(10, func() { fired = e.Now() }) // in the past
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamp to 100", fired)
	}
}

type recordingHandler struct {
	calls [][2]int64
}

func (h *recordingHandler) HandleEvent(e *Engine, a, b int64) {
	h.calls = append(h.calls, [2]int64{a, b})
}

func TestTypedEvents(t *testing.T) {
	e := NewEngine(1)
	h := &recordingHandler{}
	e.ScheduleCall(20, h, 2, 20)
	e.ScheduleCall(10, h, 1, 10)
	e.AfterCall(15, h, 3, 15)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := [][2]int64{{1, 10}, {3, 15}, {2, 20}}
	if len(h.calls) != len(want) {
		t.Fatalf("calls = %v, want %v", h.calls, want)
	}
	for i := range want {
		if h.calls[i] != want[i] {
			t.Fatalf("calls = %v, want %v", h.calls, want)
		}
	}
}

// TestTypedAndClosureInterleave checks typed and closure events share one
// (At, seq) order.
func TestTypedAndClosureInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []int64
	h := &recordingHandler{}
	e.Schedule(5, func() { order = append(order, -1) })
	e.ScheduleCall(5, h, 1, 0)
	e.Schedule(5, func() { order = append(order, -2) })
	e.ScheduleCall(5, h, 2, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != -1 || order[1] != -2 {
		t.Fatalf("closure order: %v", order)
	}
	if len(h.calls) != 2 || h.calls[0][0] != 1 || h.calls[1][0] != 2 {
		t.Fatalf("typed order: %v", h.calls)
	}
}

func TestHalt(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.Schedule(1, func() { count++; e.Halt() })
	e.Schedule(2, func() { count++ })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("count = %d, want 1 after Halt", count)
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	if err := e.RunUntil(25); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10 and 20", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %d, want 25", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 after Run", fired)
	}
}

func TestRunUntilAdvancesClockWhenEmpty(t *testing.T) {
	e := NewEngine(1)
	if err := e.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 500 {
		t.Fatalf("clock = %d, want 500", e.Now())
	}
}

// TestRunUntilThenScheduleEarlier: RunUntil stops short of the next event
// without committing the queue to that event's time, so an event scheduled
// after it returns, but before the next pending one, still fires first.
func TestRunUntilThenScheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	at := func(when Time) { e.Schedule(when, func() { fired = append(fired, e.Now()) }) }
	at(1000)
	at(1001)
	if err := e.RunUntil(500); err != nil {
		t.Fatal(err)
	}
	at(600)
	at(999)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{600, 999, 1000, 1001}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// drives are the three ways to run an engine dry: one Run call, a Step loop
// and a sequence of short RunUntil segments. All three must execute the same
// events in the same order.
var drives = []struct {
	name string
	run  func(e *Engine) error
}{
	{"Run", (*Engine).Run},
	{"Step", func(e *Engine) error {
		for {
			ok, err := e.Step()
			if !ok || err != nil {
				return err
			}
		}
	}},
	{"RunUntil", func(e *Engine) error {
		for e.Pending() > 0 {
			if err := e.RunUntil(e.Now() + 7); err != nil {
				return err
			}
		}
		return nil
	}},
}

// randomWalk is a self-rescheduling typed workload. Each event folds its
// time, its arguments and one draw from the engine's random stream into an
// FNV-1a trace hash, then schedules one follow-up (two, one time in four) at
// a random delay of 0–4 cycles until the hop budget runs out. Zero delays
// exercise same-time FIFO order, and the draws tie the trace to the order
// the events ran in.
type randomWalk struct {
	walkers int64
	hops    int64
	trace   uint64
}

func (w *randomWalk) HandleEvent(e *Engine, walker, hop int64) {
	r := e.Rand().Int63()
	for _, v := range []int64{e.Now(), walker, hop, r} {
		w.trace = (w.trace ^ uint64(v)) * 1099511628211
	}
	if hop == w.hops {
		return
	}
	e.AfterCall(r%5, w, (walker+(r>>8))%w.walkers, hop+1)
	if (r>>16)%4 == 0 {
		e.AfterCall((r>>20)%5, w, walker, hop+1)
	}
}

// start seeds one event per walker on e.
func (w *randomWalk) start(e *Engine) {
	w.trace = 14695981039346656037
	for i := int64(0); i < w.walkers; i++ {
		e.ScheduleCall(i, w, i, 0)
	}
}

// TestDrivesExecuteSameEvents checks that a Step loop and RunUntil segments
// execute exactly the events a single Run does: same trace hash (times,
// arguments and random draws, in order) and same executed count.
func TestDrivesExecuteSameEvents(t *testing.T) {
	var wantTrace, wantEvents uint64
	for i, d := range drives {
		e := NewEngine(3)
		w := &randomWalk{walkers: 8, hops: 24}
		w.start(e)
		if err := d.run(e); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		if e.Pending() != 0 {
			t.Fatalf("%s left %d events pending", d.name, e.Pending())
		}
		if i == 0 {
			wantTrace, wantEvents = w.trace, e.ExecutedEvents()
			if wantEvents < 1000 {
				t.Fatalf("workload executed only %d events", wantEvents)
			}
			continue
		}
		if w.trace != wantTrace || e.ExecutedEvents() != wantEvents {
			t.Fatalf("%s: trace %x after %d events, %s gave %x after %d",
				d.name, w.trace, e.ExecutedEvents(), drives[0].name, wantTrace, wantEvents)
		}
	}
}

func TestEventLimit(t *testing.T) {
	const limit = 1000
	for _, d := range drives {
		t.Run(d.name, func(t *testing.T) {
			e := NewEngine(3)
			e.SetEventLimit(limit)
			(&randomWalk{walkers: 8, hops: 24}).start(e)
			if err := d.run(e); err == nil {
				t.Fatal("expected event limit error")
			}
			if got := e.ExecutedEvents(); got != limit+1 {
				t.Fatalf("stopped after %d events, want %d", got, limit+1)
			}
		})
	}
}

func TestExecutedEvents(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 7; i++ {
		e.Schedule(Time(i), func() {})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.ExecutedEvents() != 7 {
		t.Fatalf("executed = %d, want 7", e.ExecutedEvents())
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEngine(42)
	b := NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different streams")
		}
	}
	if a.Seed() != 42 {
		t.Fatalf("Seed() = %d, want 42", a.Seed())
	}
}

// TestResetMatchesFresh is the engine half of cross-trial reuse: after Reset,
// the engine must behave byte-identically to a freshly constructed engine —
// clock, event order, executed counts and random stream.
func TestResetMatchesFresh(t *testing.T) {
	run := func(e *Engine) ([]Time, []int64) {
		var fired []Time
		var draws []int64
		for _, at := range []Time{30, 10, 20, 10} {
			at := at
			e.Schedule(at, func() {
				fired = append(fired, e.Now())
				draws = append(draws, e.Rand().Int63())
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fired, draws
	}
	used := NewEngine(7)
	run(used)             // dirty the engine with a first epoch
	used.SetEventLimit(2) // must not survive the Reset (fresh engines are unlimited)
	used.Reset(99)

	fresh := NewEngine(99)
	fa, da := run(fresh)
	fb, db := run(used)
	if len(fa) != len(fb) || len(da) != len(db) {
		t.Fatal("reset engine ran a different number of events")
	}
	for i := range fa {
		if fa[i] != fb[i] || da[i] != db[i] {
			t.Fatalf("reset engine diverged at event %d: fresh (%d, %d) vs reset (%d, %d)",
				i, fa[i], da[i], fb[i], db[i])
		}
	}
	if used.Now() != fresh.Now() || used.ExecutedEvents() != fresh.ExecutedEvents() {
		t.Fatal("reset engine clock/exec count differs from fresh engine")
	}
	if used.Seed() != 99 {
		t.Fatalf("Seed() after Reset = %d, want 99", used.Seed())
	}
}

// Property: events always execute in non-decreasing time order, regardless of
// the insertion order.
func TestPropertyTimeOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		if len(times) == 0 {
			return true
		}
		e := NewEngine(7)
		var fired []Time
		for _, at := range times {
			at := Time(at)
			e.Schedule(at, func() { fired = append(fired, at) })
		}
		if err := e.Run(); err != nil {
			return false
		}
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock never runs backwards.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine(3)
		last := Time(0)
		ok := true
		for _, d := range delays {
			d := Time(d)
			e.After(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkScheduleRun measures the steady-state cost of the schedule/fire
// cycle with closure events.
func BenchmarkScheduleRun(b *testing.B) {
	e := NewEngine(1)
	var step func()
	n := 0
	step = func() {
		n++
		if n < b.N {
			e.After(1, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.After(1, step)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

type benchHandler struct {
	e *Engine
	n int64
	N int64
}

func (h *benchHandler) HandleEvent(e *Engine, a, b int64) {
	h.n++
	if h.n < h.N {
		e.AfterCall(1, h, 0, 0)
	}
}

// BenchmarkScheduleRunTyped measures the same cycle with typed events; it
// must report zero allocs/op.
func BenchmarkScheduleRunTyped(b *testing.B) {
	e := NewEngine(1)
	h := &benchHandler{e: e, N: int64(b.N)}
	b.ReportAllocs()
	b.ResetTimer()
	e.AfterCall(1, h, 0, 0)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// depthHandler keeps a fixed number of typed events in flight: each one, when
// it fires, reschedules itself 1–256 cycles later. The gaps come from a
// xorshift generator rather than the engine's random stream, so the queue is
// what gets measured.
type depthHandler struct{ x uint64 }

func (h *depthHandler) HandleEvent(e *Engine, _, _ int64) {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	e.AfterCall(Time(h.x&255)+1, h, 0, 0)
}

// BenchmarkEngineDepth measures dispatch at the queue depths the workloads
// run, which the depth-1 benchmarks above cannot show. One op is one event;
// the buckets are warmed before the timer starts, and the budget is zero
// allocs/op.
func BenchmarkEngineDepth(b *testing.B) {
	for _, depth := range []int{64, 1024} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine(1)
			h := &depthHandler{x: 88172645463325252}
			for i := range depth {
				e.ScheduleCall(Time(i), h, 0, 0)
			}
			for range 64 * depth {
				e.Step()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				if _, err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/event")
		})
	}
}
