package sim

import (
	"reflect"
	"testing"
)

// toySleeper does one unit of work per Tick while it has any and is
// dormant otherwise. poke wakes it and hands it more work; work records
// the cycle each unit was done, which must not depend on whether the
// kernel slept it.
type toySleeper struct {
	wake    func()
	pending int

	ticks, charged uint64
	work           []uint64
}

func (s *toySleeper) Tick(now uint64) {
	s.ticks++
	if s.pending > 0 {
		s.pending--
		s.work = append(s.work, now)
	}
}
func (s *toySleeper) SetWake(w func())    { s.wake = w }
func (s *toySleeper) Dormant() bool       { return s.pending == 0 }
func (s *toySleeper) SkipCycles(n uint64) { s.charged += n }
func (s *toySleeper) poke(n int) {
	s.wake()
	s.pending += n
}

// quietSleeper also reports Idle while dormant, so fast-forward can
// jump while it sleeps.
type quietSleeper struct{ toySleeper }

func (s *quietSleeper) Idle() bool { return s.Dormant() }

// poker pokes its target at fixed cycles from inside its own Tick. It
// reports idle once its last poke is behind it.
type poker struct {
	k      *Kernel
	at     map[uint64]int
	target interface{ poke(int) }
}

func (p *poker) Tick(now uint64) {
	if n, ok := p.at[now]; ok {
		p.target.poke(n)
	}
}

func (p *poker) Idle() bool {
	for c := range p.at {
		if c > p.k.Now() {
			return false
		}
	}
	return true
}

// sleepRun runs one toy machine: a poker registered before the sleeper,
// the sleeper, a poker registered after it, and event pokes. It returns
// the sleeper after RunUntil has stopped at limit.
func sleepRun(t *testing.T, ff, idle bool, limit uint64) (*toySleeper, *Kernel) {
	t.Helper()
	k := NewKernel()
	k.SetFastForward(ff)
	var s *toySleeper
	var tk Tickable
	if idle {
		q := &quietSleeper{}
		s, tk = &q.toySleeper, q
	} else {
		s = &toySleeper{}
		tk = s
	}
	before := &poker{k: k, at: map[uint64]int{5: 2, 40: 1, 41: 3}, target: s}
	after := &poker{k: k, at: map[uint64]int{12: 1, 13: 2, 60: 4, 97: 1}, target: s}
	k.Register(before)
	k.Register(tk)
	k.Register(after)
	for _, ev := range []struct {
		at uint64
		n  int
	}{{20, 1}, {21, 2}, {40, 1}, {75, 5}, {2000, 1}} {
		n := ev.n
		k.ScheduleAt(ev.at, func() { s.poke(n) })
	}
	if _, ok := k.RunUntil(func() bool { return false }, limit); ok {
		t.Fatal("predicate never holds")
	}
	return s, k
}

// TestSleeperWakeContract wakes a toy sleeper from an event, from an
// earlier-registered tickable and from a later-registered one. The
// cycles at which it does work must match plain stepping exactly, and
// ticks plus bulk-charged cycles must cover every cycle — also when
// RunUntil exits at its limit with the sleeper asleep.
func TestSleeperWakeContract(t *testing.T) {
	for _, idle := range []bool{false, true} {
		for _, limit := range []uint64{13, 41, 100, 3000} {
			ref, _ := sleepRun(t, false, idle, limit)
			got, k := sleepRun(t, true, idle, limit)
			if ref.ticks != limit || ref.charged != 0 {
				t.Fatalf("plain stepping: %d ticks, %d charged, want %d ticks", ref.ticks, ref.charged, limit)
			}
			if !reflect.DeepEqual(got.work, ref.work) {
				t.Errorf("idle=%v limit=%d: work cycles %v, plain stepping %v", idle, limit, got.work, ref.work)
			}
			if got.ticks+got.charged != limit {
				t.Errorf("idle=%v limit=%d: %d ticks + %d charged != %d cycles",
					idle, limit, got.ticks, got.charged, limit)
			}
			if got.ticks >= ref.ticks {
				t.Errorf("idle=%v limit=%d: slept sleeper ticked %d times, plain %d — it never slept",
					idle, limit, got.ticks, ref.ticks)
			}
			if !idle && k.Skipped() != 0 {
				t.Errorf("dormant-but-busy sleeper let fast-forward skip %d cycles", k.Skipped())
			}
			if idle && limit == 3000 && k.Skipped() == 0 {
				t.Error("idle sleeper never let fast-forward skip")
			}
		}
	}
}

// TestSleepersTickOnPlainStep checks that sleeping is confined to
// RunUntil: after a run every component is awake with its accounting
// current, and a plain Step ticks it.
func TestSleepersTickOnPlainStep(t *testing.T) {
	s, k := sleepRun(t, true, false, 30)
	ticks := s.ticks
	k.Step()
	if s.ticks != ticks+1 || s.ticks+s.charged != 31 {
		t.Fatalf("after Step: %d ticks (was %d), %d charged; want a real tick and 31 cycles covered",
			s.ticks, ticks, s.charged)
	}
}
