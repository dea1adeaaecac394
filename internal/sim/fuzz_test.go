package sim

import (
	"slices"
	"testing"
)

// fuzzEvent says what a fuzzed event does when it fires.
type fuzzEvent struct {
	typed bool // scheduled with ScheduleCall rather than Schedule
	halt  bool // calls Halt
	gen   int  // schedules a child delay cycles later while gen > 0
	delay Time
}

// child is the event a firing event with gen > 0 schedules.
func (ev fuzzEvent) child() fuzzEvent {
	return fuzzEvent{typed: !ev.typed, gen: ev.gen - 1, delay: ev.delay}
}

// engineSide drives an Engine. Event ids are assigned in schedule order on
// each side, so the two sides agree on ids as long as they agree on the
// order events fire in.
type engineSide struct {
	e     *Engine
	evs   []fuzzEvent // by id
	fired []int
}

func (s *engineSide) add(at Time, ev fuzzEvent) {
	id := len(s.evs)
	s.evs = append(s.evs, ev)
	if ev.typed {
		s.e.ScheduleCall(at, s, int64(id), 0)
	} else {
		s.e.Schedule(at, func() { s.fire(id) })
	}
}

func (s *engineSide) HandleEvent(_ *Engine, id, _ int64) { s.fire(int(id)) }

func (s *engineSide) fire(id int) {
	s.fired = append(s.fired, id)
	ev := s.evs[id]
	if ev.halt {
		s.e.Halt()
	}
	if ev.gen > 0 {
		s.add(s.e.Now()+ev.delay, ev.child())
	}
}

// refQueue is the reference engine: a slice whose pop is a linear scan for
// the least (at, seq), with the Engine's clock, halt and run-loop rules.
type refQueue struct {
	now    Time
	seq    uint64
	nexec  uint64
	halted bool
	queue  []refEvent
	evs    []fuzzEvent // by id
	fired  []int
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

func (r *refQueue) add(at Time, ev fuzzEvent) {
	r.queue = append(r.queue, refEvent{at: max(at, r.now), seq: r.seq, id: len(r.evs)})
	r.evs = append(r.evs, ev)
	r.seq++
}

func (r *refQueue) least() int {
	best := 0
	for i, ev := range r.queue {
		if b := r.queue[best]; ev.at < b.at || ev.at == b.at && ev.seq < b.seq {
			best = i
		}
	}
	return best
}

func (r *refQueue) step() {
	i := r.least()
	ev := r.queue[i]
	r.queue = slices.Delete(r.queue, i, i+1)
	r.now = max(r.now, ev.at)
	r.nexec++
	r.fired = append(r.fired, ev.id)
	spec := r.evs[ev.id]
	if spec.halt {
		r.halted = true
	}
	if spec.gen > 0 {
		r.add(r.now+spec.delay, spec.child())
	}
}

func (r *refQueue) run() {
	r.halted = false
	for len(r.queue) > 0 && !r.halted {
		r.step()
	}
}

func (r *refQueue) runUntil(deadline Time) {
	r.halted = false
	for len(r.queue) > 0 && !r.halted && r.queue[r.least()].at <= deadline {
		r.step()
	}
	r.now = max(r.now, deadline)
}

func (r *refQueue) reset() {
	r.now, r.seq, r.nexec, r.halted = 0, 0, 0, false
	r.queue = r.queue[:0]
}

// FuzzEngine decodes bytes into operations and applies each one both to an
// Engine and to a reference queue, comparing the fired ids, Now, Pending and
// ExecutedEvents after every operation. Each operation is four bytes:
//
//	op     op%8: 0–2 schedule, 3 and 7 Step, 4 Run, 5 RunUntil(now+d), 6 Reset
//	flags  bit 0 typed, bit 1 Halt when fired, bits 2–3 child generations,
//	       bits 4–7 shift
//	lo hi  d = (lo + 256*hi - 256) << shift, so d may be zero or negative
//
// A schedule is at now+d; its children follow d cycles apart.
func FuzzEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 3, 0, 0, 0, 4, 0, 0, 0})
	f.Add([]byte{
		0, 0x38, 0x10, 1, // closure at now+16<<3, two child generations
		1, 0x01, 0x00, 1, // typed at now+0
		2, 0x02, 0x05, 1, // closure at now+5 that halts
		0, 0xf1, 0x01, 1, // typed at now+1<<15
		4, 0, 0, 0, // Run, stopped by the halt
		5, 0, 0x40, 1, // RunUntil(now+64)
		6, 7, 0, 0, // Reset(7)
		0, 0x01, 0x00, 0, // typed in the past, clamped to now
		3, 0, 0, 0, // Step
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		eng := &engineSide{e: NewEngine(1)}
		ref := &refQueue{}
		for k := 0; len(data) >= 4 && k < 256; k++ {
			op, flags := data[0], data[1]
			d := (Time(data[2]) | Time(data[3])<<8 - 256) << (flags >> 4)
			data = data[4:]
			switch op % 8 {
			case 0, 1, 2:
				ev := fuzzEvent{typed: flags&1 != 0, halt: flags&2 != 0, gen: int(flags >> 2 & 3), delay: d}
				eng.add(eng.e.Now()+d, ev)
				ref.add(ref.now+d, ev)
			case 3, 7:
				if ok, err := eng.e.Step(); err != nil || ok != (len(ref.queue) > 0) {
					t.Fatalf("op %d: Step = %v, %v with %d reference events pending", k, ok, err, len(ref.queue))
				}
				if len(ref.queue) > 0 {
					ref.step()
				}
			case 4:
				if err := eng.e.Run(); err != nil {
					t.Fatal(err)
				}
				ref.run()
			case 5:
				if err := eng.e.RunUntil(eng.e.Now() + d); err != nil {
					t.Fatal(err)
				}
				ref.runUntil(ref.now + d)
			case 6:
				eng.e.Reset(int64(flags))
				ref.reset()
			}
			if !slices.Equal(eng.fired, ref.fired) {
				t.Fatalf("op %d: engine fired %v, reference fired %v", k, eng.fired, ref.fired)
			}
			if eng.e.Now() != ref.now || eng.e.Pending() != len(ref.queue) || eng.e.ExecutedEvents() != ref.nexec {
				t.Fatalf("op %d: engine now=%d pending=%d executed=%d, reference now=%d pending=%d executed=%d",
					k, eng.e.Now(), eng.e.Pending(), eng.e.ExecutedEvents(), ref.now, len(ref.queue), ref.nexec)
			}
		}
	})
}
