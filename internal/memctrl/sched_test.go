package memctrl

import (
	"math/rand"
	"reflect"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
)

// refReq is one queued request of the reference scheduler.
type refReq struct {
	line, row, enq uint64
	bank           int
}

// refCtrl is a memo-free reference for Controller's scheduler: the same
// read-first / write-drain FR-FCFS policy, with every pick a full scan of
// the scheduling window.
type refCtrl struct {
	cfg           Config
	banks         []bank
	reads, writes []refReq
	draining      bool
	st            Stats
}

func (r *refCtrl) enqueue(write bool, line, now uint64) {
	q := refReq{line: line, row: line / r.cfg.RowBytes / uint64(r.cfg.Banks), enq: now,
		bank: int((line / 64) % uint64(r.cfg.Banks))}
	if !write {
		r.reads = append(r.reads, q)
		return
	}
	r.writes = append(r.writes, q)
	if len(r.writes) > r.st.WriteQueuePeak {
		r.st.WriteQueuePeak = len(r.writes)
	}
}

func (r *refCtrl) pick(q []refReq, window int, now uint64) int {
	oldest := -1
	for i := 0; i < len(q) && i < window; i++ {
		b := &r.banks[q[i].bank]
		if b.busyUntil > now {
			continue
		}
		if b.hasOpen && b.openRow == q[i].row {
			return i
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

func (r *refCtrl) issue(q *[]refReq, i int, write bool, now uint64) {
	req := (*q)[i]
	*q = append((*q)[:i], (*q)[i+1:]...)
	b := &r.banks[req.bank]
	hit := b.hasOpen && b.openRow == req.row
	lat := map[[2]bool]uint64{
		{true, true}: r.cfg.WriteHit, {true, false}: r.cfg.WriteMiss,
		{false, true}: r.cfg.ReadHit, {false, false}: r.cfg.ReadMiss,
	}[[2]bool{write, hit}]
	b.busyUntil, b.openRow, b.hasOpen = now+lat, req.row, true
	if hit {
		r.st.RowHits++
	} else {
		r.st.RowMisses++
	}
	if write {
		r.st.Writes++
		return
	}
	r.st.Reads++
	// The completion event fires lat cycles later (at least one).
	done := now + lat
	if lat == 0 {
		done = now + 1
	}
	r.st.ReadLatencySum += done - req.enq
	if done-req.enq > r.st.ReadLatencyMax {
		r.st.ReadLatencyMax = done - req.enq
	}
}

func (r *refCtrl) tick(now uint64) {
	if !r.draining && len(r.writes) >= r.cfg.DrainHigh {
		r.draining = true
		r.st.DrainEntries++
	}
	issued := false
	for n := 0; n < r.cfg.CmdPerCycle; n++ {
		if r.draining {
			if i := r.pick(r.writes, r.cfg.WriteWindow, now); i >= 0 {
				r.issue(&r.writes, i, true, now)
				issued = true
				continue
			}
		}
		if i := r.pick(r.reads, r.cfg.ReadWindow, now); i >= 0 {
			r.issue(&r.reads, i, false, now)
			issued = true
			continue
		}
		if i := r.pick(r.writes, r.cfg.WriteWindow, now); i >= 0 {
			r.issue(&r.writes, i, true, now)
			issued = true
		}
	}
	if issued {
		r.st.BusyCycles++
	}
	if r.draining && len(r.writes) <= r.cfg.DrainLow {
		r.draining = false
	}
}

func (r *refCtrl) idle(now uint64) bool {
	if !r.draining && len(r.writes) >= r.cfg.DrainHigh {
		return false
	}
	return r.pick(r.reads, r.cfg.ReadWindow, now) < 0 && r.pick(r.writes, r.cfg.WriteWindow, now) < 0
}

// schedChecker ticks right after the controller on every stepped cycle.
// It catches the reference up through the cycles fast-forward skipped
// (which the reference steps for real) and the current one, then
// requires identical queues, bank state, picks, Idle and stats.
type schedChecker struct {
	t    *testing.T
	c    *Controller
	ref  *refCtrl
	last uint64
}

// Idle lets fast-forward jump whenever the controller allows it.
func (s *schedChecker) Idle() bool { return true }

func (s *schedChecker) Tick(now uint64) {
	for s.last < now {
		s.last++
		s.ref.tick(s.last)
	}
	s.compare(now)
}

func (s *schedChecker) compare(now uint64) {
	t, c, r := s.t, s.c, s.ref
	t.Helper()
	for _, q := range []struct {
		name string
		got  []request
		want []refReq
	}{{"reads", c.reads, r.reads}, {"writes", c.writes, r.writes}} {
		if len(q.got) != len(q.want) {
			t.Fatalf("cycle %d: %d %s queued, reference %d", now, len(q.got), q.name, len(q.want))
		}
		for i := range q.got {
			if q.got[i].lineAddr != q.want[i].line || q.got[i].enqueue != q.want[i].enq {
				t.Fatalf("cycle %d: %s[%d] = line %#x enq %d, reference line %#x enq %d — issue order diverged",
					now, q.name, i, q.got[i].lineAddr, q.got[i].enqueue, q.want[i].line, q.want[i].enq)
			}
		}
	}
	if !reflect.DeepEqual(c.banks, r.banks) || c.draining != r.draining {
		t.Fatalf("cycle %d: bank/drain state diverged", now)
	}
	if got, want := c.pickIssuable(c.reads, c.cfg.ReadWindow, &c.readsBlocked, now), r.pick(r.reads, r.cfg.ReadWindow, now); got != want {
		t.Fatalf("cycle %d: read pick %d, reference %d", now, got, want)
	}
	if got, want := c.pickIssuable(c.writes, c.cfg.WriteWindow, &c.writesBlocked, now), r.pick(r.writes, r.cfg.WriteWindow, now); got != want {
		t.Fatalf("cycle %d: write pick %d, reference %d", now, got, want)
	}
	if got, want := c.Idle(), r.idle(now); got != want {
		t.Fatalf("cycle %d: Idle %v, reference %v", now, got, want)
	}
	got, want := c.Stats(), r.st
	// Read latency lands at completion in the controller and at issue in
	// the reference; those two fields are compared once everything has
	// completed.
	got.ReadLatencySum, got.ReadLatencyMax = 0, 0
	want.ReadLatencySum, want.ReadLatencyMax = 0, 0
	if got != want {
		t.Fatalf("cycle %d: stats %+v, reference %+v", now, got, want)
	}
}

// TestSchedulerMatchesMemoFreeReference drives random Read/Write bursts
// and time advances (fast-forward on, so blocked windows are also
// skipped) through one controller and checks its memoized scheduler
// against the memo-free reference after every stepped cycle: identical
// issue order, bank state, picks, Idle verdicts and stats.
func TestSchedulerMatchesMemoFreeReference(t *testing.T) {
	small := testConfig()
	small.ReadWindow, small.WriteWindow, small.DrainHigh, small.DrainLow = 3, 6, 5, 2
	small.CmdPerCycle = 2
	for ci, cfg := range []Config{testConfig(), small} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			k := sim.NewKernel()
			c := New(k, cfg)
			ref := &refCtrl{cfg: c.cfg, banks: make([]bank, c.cfg.Banks)}
			chk := &schedChecker{t: t, c: c, ref: ref}
			k.Register(chk)
			// A few rows per bank: row hits, row misses and bank
			// conflicts all occur.
			line := func() uint64 {
				return memaddr.NVMBase + uint64(rng.Intn(c.cfg.Banks*6))*64 +
					uint64(rng.Intn(3))*c.cfg.RowBytes*uint64(c.cfg.Banks)
			}
			for op := 0; op < 400; op++ {
				switch r := rng.Intn(10); {
				case r < 3:
					for n := rng.Intn(4); n >= 0; n-- {
						a := line()
						c.Read(a, nil)
						ref.enqueue(false, a, k.Now())
					}
				case r < 6:
					for n := rng.Intn(12); n >= 0; n-- {
						a := line()
						c.Write(a, nil, nil)
						ref.enqueue(true, a, k.Now())
					}
				default:
					k.RunUntil(func() bool { return false }, k.Now()+1+uint64(rng.Intn(200)))
				}
			}
			k.RunUntil(c.Quiescent, k.Now()+1_000_000)
			if !c.Quiescent() {
				t.Fatalf("config %d seed %d: controller never drained", ci, seed)
			}
			for chk.last < k.Now() {
				chk.last++
				ref.tick(chk.last)
			}
			if got := c.Stats(); got != ref.st {
				t.Fatalf("config %d seed %d: final stats %+v, reference %+v", ci, seed, got, ref.st)
			}
			if k.Skipped() == 0 {
				t.Fatalf("config %d seed %d: fast-forward never skipped a blocked window", ci, seed)
			}
		}
	}
}

// BenchmarkControllerTick measures one Tick plus the Idle poll the kernel
// makes between cycles, on a full 64-entry write window whose banks are
// all busy — the state a write-saturated NVM channel spends most cycles
// in. Every 4096 cycles one bank frees and issues, so the window
// re-blocks and the blocked verdict is rediscovered.
func BenchmarkControllerTick(b *testing.B) {
	k := sim.NewKernel()
	cfg := testConfig()
	cfg.Banks = 64
	cfg.DrainHigh = 1000 // no drain: writes issue opportunistically
	cfg.DrainLow = 500
	c := New(k, cfg)
	refill := func() {
		for len(c.writes) < 2*c.cfg.WriteWindow {
			c.Write(memaddr.NVMBase+uint64(len(c.writes))*64, nil, nil)
		}
	}
	refill()
	for i := range c.banks {
		c.banks[i].busyUntil = 1 << 62
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&4095 == 0 {
			c.banks[i>>12%len(c.banks)].busyUntil = k.Now()
			refill()
		}
		k.Step()
		c.Idle()
	}
}
