// Package sim provides the discrete-event simulation kernel used by every
// timed component in pmemaccel: a cycle clock, an event queue for latency
// callbacks (a timing wheel with a heap for far-future events), and a
// registry of per-cycle tickable components.
//
// The kernel advances one cycle at a time. Within a cycle it first fires
// every event scheduled for that cycle (in schedule order, so execution is
// deterministic), then ticks the registered Tickables in registration
// order. Components therefore see a consistent "events happen, then state
// machines advance" discipline each cycle.
//
// Two mechanisms keep the host from paying for simulated waiting, both
// exact by construction and both governed by SetFastForward:
//
//   - When every registered component implements Quiescer and reports
//     idle, RunUntil fast-forwards the clock to the next scheduled event
//     instead of spinning no-op tick sweeps.
//   - A component implementing Sleeper that reports Dormant after its
//     Tick is left out of later sweeps until its own callbacks wake it;
//     the skipped ticks are charged in bulk through CycleSkipper.
//
// The contracts (when a component may report idle or dormant, and when it
// must wake) are documented on Quiescer and Sleeper and in DESIGN.md §10;
// they guarantee results are byte-identical with fast-forward on or off.
package sim

import "math/bits"

// Tickable is a component that advances its state machine once per cycle.
type Tickable interface {
	// Tick advances the component by one cycle. The current cycle number
	// is passed so components do not need a back-pointer to the kernel.
	Tick(cycle uint64)
}

// Quiescer is an optional interface a Tickable may implement to let the
// kernel fast-forward across cycles where the whole machine is provably
// quiet.
//
// Idle must return true only when the component's next Tick would be a
// no-op at its current state: no state change, no event scheduled, no
// probe emission — nothing observable except per-cycle accounting, which
// the kernel applies in bulk through CycleSkipper. Component state may
// only change between ticks through kernel events, and the kernel never
// skips past an event, so a component that is idle now is idle for every
// skipped cycle. When in doubt a component must report busy: a false
// "busy" only costs speed, a false "idle" breaks the byte-identical
// guarantee.
type Quiescer interface {
	Idle() bool
}

// CycleSkipper is an optional companion to Quiescer for components whose
// idle Tick still accrues per-cycle accounting (a stalled core charging
// its stall bucket). SkipCycles(n) must apply exactly the accounting n
// consecutive idle Ticks would have, and nothing else.
type CycleSkipper interface {
	SkipCycles(n uint64)
}

// Sleeper is an optional interface for components that spend long
// stretches waiting while the rest of the machine runs. After a Tick
// that leaves the component Dormant, the kernel stops ticking it; the
// component's state may then change only through its own entry points,
// and each of them must call the wake function handed over by SetWake
// before it mutates anything. Waking bulk-charges the skipped ticks
// through CycleSkipper (if implemented) at the dormant state, then the
// component ticks again from the next slot it has not yet passed.
//
// Dormant must return true only when every Tick until the next outside
// change is a no-op apart from what SkipCycles charges — the Idle
// contract, minus the requirement that the whole machine be quiet.
// Dormant may hold where Idle does not: fast-forward still polls Idle,
// so a dormant-but-busy component keeps the clock stepping.
type Sleeper interface {
	SetWake(wake func())
	Dormant() bool
}

// tickEntry caches the optional-interface assertions done once at
// Register time, keeping the per-cycle and per-skip loops free of type
// switches.
type tickEntry struct {
	t Tickable
	q Quiescer     // nil: component never reports idle (always busy)
	s CycleSkipper // nil: no bulk accounting on skip
	d Sleeper      // nil: component never sleeps

	// sleptAt is the cycle of a sleeping component's last Tick: its
	// accounting is charged through that cycle.
	sleptAt uint64
}

// Kernel is the simulation engine. The zero value is not usable; use
// NewKernel.
type Kernel struct {
	now       uint64
	seq       uint64
	events    eventQueue
	tickables []tickEntry
	// awake has bit i set while tickable i takes part in the sweep; the
	// sweep walks set bits, so sleeping components cost nothing.
	awake []uint64

	// ff enables quiescence fast-forward and sleeping; skipped counts the
	// cycles the kernel jumped instead of stepping.
	ff      bool
	skipped uint64

	// sleep is set while a serial RunUntil with fast-forward on is in
	// progress: only then may dormant components sleep. pos is the
	// registration index of the component ticking now (-1 while events
	// fire, len(tickables) between cycles); a component woken mid-sweep
	// whose slot already passed counts the current cycle as skipped.
	sleep bool
	pos   int

	// ticks counts Tick calls actually executed (diagnostic; not part of
	// any Result).
	ticks uint64

	// pastSchedules counts ScheduleAt calls whose target cycle was
	// strictly in the past (coerced to now+1). A nonzero count flags a
	// causality bug: no component should ever compute a stale absolute
	// cycle. The parallel kernel's equivalence tests assert it stays
	// zero — under parallel ticking a past-cycle schedule would
	// otherwise mask a cross-worker causality violation as a quiet
	// reordering.
	pastSchedules uint64

	// par is the parallel execution mode (nil = serial). See parallel.go.
	par *parallel

	debugBlocked func(int)
}

// NewKernel returns a kernel at cycle 0 with no pending events and
// quiescence fast-forward enabled.
func NewKernel() *Kernel {
	return &Kernel{ff: true}
}

// Now reports the current cycle.
func (k *Kernel) Now() uint64 { return k.now }

// SetFastForward enables or disables quiescence fast-forward and
// sleeping. Results are byte-identical either way; disabling exists for
// equivalence tests and perf comparison, and leaves plain stepping —
// every component ticked every cycle — as the reference path.
func (k *Kernel) SetFastForward(on bool) { k.ff = on }

// Skipped reports how many cycles fast-forward jumped over so far.
func (k *Kernel) Skipped() uint64 { return k.skipped }

// Ticks reports how many component Ticks the kernel has executed so far
// (skipped and sleeping ticks excluded).
func (k *Kernel) Ticks() uint64 { return k.ticks }

// PastSchedules reports how many ScheduleAt calls targeted a cycle
// strictly in the past and were coerced to the next cycle. Always zero
// for a well-behaved machine; the parallel-kernel equivalence tests
// assert it.
func (k *Kernel) PastSchedules() uint64 { return k.pastSchedules }

// Register adds a component to the per-cycle tick list. Components tick in
// registration order. Components implementing Quiescer (and optionally
// CycleSkipper) participate in quiescence fast-forward; components
// implementing Sleeper receive their wake function here.
func (k *Kernel) Register(t Tickable) {
	e := tickEntry{t: t}
	e.q, _ = t.(Quiescer)
	e.s, _ = t.(CycleSkipper)
	e.d, _ = t.(Sleeper)
	i := len(k.tickables)
	k.tickables = append(k.tickables, e)
	if i>>6 == len(k.awake) {
		k.awake = append(k.awake, 0)
	}
	k.awake[i>>6] |= 1 << uint(i&63)
	if e.d != nil {
		e.d.SetWake(func() { k.wake(i) })
	}
}

// wake returns tickable i to the sweep, first charging the ticks it
// slept through: every cycle after sleptAt up to the previous one, plus
// the current cycle when its slot in this cycle's sweep already passed.
func (k *Kernel) wake(i int) {
	w, bit := i>>6, uint64(1)<<uint(i&63)
	if k.awake[w]&bit != 0 {
		return
	}
	k.awake[w] |= bit
	e := &k.tickables[i]
	last := k.now - 1
	if i < k.pos {
		last = k.now
	}
	if last > e.sleptAt && e.s != nil {
		e.s.SkipCycles(last - e.sleptAt)
	}
}

// settle wakes every sleeping component, charging its skipped ticks, and
// ends sleeping: between RunUntil calls every component's accounting is
// current and every component ticks on a plain Step.
func (k *Kernel) settle() {
	k.sleep = false
	k.pos = len(k.tickables)
	for i := range k.tickables {
		k.wake(i)
	}
}

// Schedule arranges for fn to run delay cycles from now. A delay of 0 runs
// fn at the start of the next cycle (events for the current cycle have
// already fired), keeping same-cycle feedback loops impossible.
func (k *Kernel) Schedule(delay uint64, fn func()) {
	k.ScheduleAt(k.now+delay, fn)
}

// ScheduleAt arranges for fn to run at the given absolute cycle. Scheduling
// in the past (or for the current cycle) is adjusted to the next cycle.
// Current-cycle targets are the documented Schedule(0) idiom; strictly
// past targets additionally increment the PastSchedules counter, since
// they indicate a caller computed a stale cycle.
func (k *Kernel) ScheduleAt(cycle uint64, fn func()) {
	if cycle <= k.now {
		if cycle < k.now {
			k.pastSchedules++
		}
		cycle = k.now + 1
	}
	k.seq++
	k.events.push(k.now, cycle, k.seq, fn)
}

// Pending reports the number of not-yet-fired events.
func (k *Kernel) Pending() int { return k.events.len() }

// Step advances the clock by exactly one cycle: fire due events, then
// tick every registered component that is not asleep. Step never
// fast-forwards; the skip logic lives in RunUntil so single-stepping
// callers keep cycle-exact control. Components only fall asleep inside
// RunUntil, so between runs Step ticks every component.
func (k *Kernel) Step() {
	k.now++
	k.pos = -1
	k.events.fire(k.now)
	for w := range k.awake {
		// The word is re-read after every Tick: a component woken
		// mid-sweep at a later slot ticks this cycle.
		var passed uint64
		for {
			m := k.awake[w] &^ passed
			if m == 0 {
				break
			}
			b := bits.TrailingZeros64(m)
			passed |= uint64(2)<<uint(b) - 1
			i := w<<6 | b
			e := &k.tickables[i]
			k.pos = i
			e.t.Tick(k.now)
			k.ticks++
			if k.sleep && e.d != nil && e.d.Dormant() {
				k.awake[w] &^= 1 << uint(b)
				e.sleptAt = k.now
			}
		}
	}
	k.pos = len(k.tickables)
}

// maybeSkip fast-forwards the clock to one cycle before the next event
// (or before limit when no event is pending) when every registered
// component is provably idle. The following Step then lands exactly on
// the event cycle with the usual events-then-ticks discipline.
//
// Soundness: component state changes only inside Tick or a fired event.
// Every skipped Tick is a no-op by the Quiescer contract and no event
// fires in the skipped range, so the machine state at the skip target is
// identical to stepping there — except per-cycle accounting, which
// SkipCycles applies in bulk for exactly the skipped cycle count.
// Sleeping components are polled too but not charged here: their wake
// charges every cycle since they fell asleep, the jumped ones included.
func (k *Kernel) maybeSkip(limit uint64) {
	if !k.ff {
		return
	}
	target := limit
	if c, ok := k.events.next(k.now); ok && c < target {
		target = c
	}
	if target <= k.now+1 {
		return
	}
	// Poll idleness in reverse registration order: the components
	// registered last (cores) answer cheapest and are busiest, so they
	// short-circuit the poll before the controllers' window scans run.
	// Polling order is unobservable — Idle must not mutate state.
	//
	// The parallel sweep already polled every component last cycle; when
	// it elided all of them the machine was provably idle at the end of
	// that cycle and nothing has run since, so the verdict is reusable.
	// The reuse is positive-only: a sweep with busy members re-polls
	// here, because a busy component may have gone idle during its own
	// Tick — taking the stale "busy" answer would diverge the skip
	// decisions (and Skipped()) from the serial kernel.
	if k.par == nil || !k.par.allIdleLast {
		for i := len(k.tickables) - 1; i >= 0; i-- {
			if k.tickables[i].q == nil || !k.tickables[i].q.Idle() {
				if k.debugBlocked != nil {
					k.debugBlocked(i)
				}
				return
			}
		}
	}
	n := target - k.now - 1
	for i := range k.tickables {
		if e := &k.tickables[i]; e.s != nil && k.awake[i>>6]&(1<<uint(i&63)) != 0 {
			e.s.SkipCycles(n)
		}
	}
	k.now += n
	k.skipped += n
}

// RunUntil steps the kernel until the predicate returns true or the cycle
// limit is reached. It returns the cycle at which it stopped and whether
// the predicate was satisfied. When the machine is quiescent it
// fast-forwards between events instead of stepping every cycle, and
// dormant components sleep; the predicate is evaluated at the same
// component states either way (state cannot change across provably idle
// cycles or inside a sleeping component). On return every sleeping
// component has been woken and its accounting is current.
func (k *Kernel) RunUntil(done func() bool, limit uint64) (uint64, bool) {
	if k.par != nil {
		k.par.prepare(k)
	}
	k.sleep = k.ff && k.par == nil
	defer k.settle()
	for !done() {
		if k.now >= limit {
			return k.now, false
		}
		k.maybeSkip(limit)
		if k.par != nil {
			k.stepPar()
		} else {
			k.Step()
		}
	}
	return k.now, true
}

// Drain steps the kernel until no events remain, up to limit cycles.
// Tickables still tick each stepped cycle. It reports whether the event
// queue emptied.
func (k *Kernel) Drain(limit uint64) bool {
	_, ok := k.RunUntil(func() bool { return k.events.len() == 0 }, limit)
	return ok
}

// DebugIdleBlockers instruments the kernel (test use): returns a closure
// reporting, per tickable index, how many idle polls that component was
// the first to answer "busy" to. Components registered after the call
// are accounted too: the counts slice grows on demand, so machines with
// any number of tickables (a 64-core grid registers well over 64) are
// safe.
func DebugIdleBlockers(k *Kernel) func() []uint64 {
	counts := make([]uint64, len(k.tickables))
	grow := func(n int) {
		for len(counts) < n {
			counts = append(counts, 0)
		}
	}
	k.debugBlocked = func(i int) {
		grow(i + 1)
		counts[i]++
	}
	return func() []uint64 {
		grow(len(k.tickables))
		return counts[:len(k.tickables)]
	}
}
