// Parallel execution mode: tick independent component groups on worker
// goroutines between per-cycle barriers, byte-identical to the serial
// kernel.
//
// The serial kernel's contract is strict: within a cycle, events fire in
// (cycle, seq) order, then tickables tick in registration order, and
// every side effect (a Schedule, a write to a shared component) lands in
// that order. The parallel mode keeps the contract observable-identical
// by splitting each component's cycle work into two phases:
//
//   - phase A (private): the component's Tick runs on a worker and may
//     read/write only state owned by its group, plus make synchronous
//     calls into its own per-core mechanism slot;
//   - phase B (shared): every interaction with shared state — kernel
//     Schedule, cache-hierarchy access, memory-controller enqueue — is
//     captured as a closure in the group's journal instead of executing.
//
// After the wave barrier, the coordinator replays journals in
// registration order of their owners. Replay therefore assigns event seq
// numbers and mutates shared components in exactly the order the serial
// sweep would have, so the event queue, every component state, and every
// result byte are identical to the serial kernel.
//
// Conservative lookahead comes from three levers, all reusing PR 3's
// quiescence machinery (the Quiescer contract, DESIGN.md §10):
//
//   - whole-machine: maybeSkip fast-forwards the clock to the next event
//     when every component is idle, exactly as in serial mode;
//   - per-component: on a stepped cycle, a component whose Idle()
//     predicate holds at its registration slot has its Tick elided and
//     replaced by SkipCycles(1). By the Quiescer contract that Tick
//     would have been a no-op apart from bulk accounting, so elision is
//     unobservable. This is the dominant win: on the measured grids
//     ~90% of tick slots are idle on stepped cycles.
//   - poll reuse: a stepped cycle whose sweep elided every component
//     proves the machine idle as of the end of that cycle, so the next
//     maybeSkip reuses that verdict instead of re-polling. The reuse is
//     one-directional (a busy sweep still re-polls, because the busy
//     component may have gone idle during its own Tick), so the skip
//     decisions — and the Skipped() count — match serial exactly.
package sim

import "sync"

// Ctx is a component's handle to the kernel. It forwards to the kernel
// directly in serial mode and journals shared-state interactions while
// its component runs inside a parallel wave. Components hold a *Ctx
// where they previously held a *Kernel; NewCtx hands out contexts for
// serial use and Bind associates them with tickables for parallel use.
type Ctx struct {
	k *Kernel
	// j is non-nil exactly while a tickable bound to this ctx runs
	// inside a parallel wave (set by the coordinator before dispatch,
	// cleared before replay; the task channel and the wave WaitGroup
	// order those writes against the worker's reads).
	j *journal
}

// NewCtx returns a context forwarding to k. One context may serve many
// components in serial mode; in parallel mode each bound group needs
// its own (Bind enforces it).
func (k *Kernel) NewCtx() *Ctx { return &Ctx{k: k} }

// Now reports the current cycle. Safe from a worker: the coordinator
// does not advance the clock while a wave is in flight.
func (x *Ctx) Now() uint64 { return x.k.now }

// Register forwards to Kernel.Register.
func (x *Ctx) Register(t Tickable) { x.k.Register(t) }

// Schedule arranges fn to run delay cycles from now, exactly like
// Kernel.Schedule. Inside a parallel wave the call is journaled and the
// (cycle, seq) assignment happens at replay, in registration order —
// the same order the serial sweep would have assigned it.
func (x *Ctx) Schedule(delay uint64, fn func()) {
	if x.j != nil {
		x.j.ops = append(x.j.ops, func() { x.k.Schedule(delay, fn) })
		return
	}
	x.k.Schedule(delay, fn)
}

// Deferring reports whether the component is currently running inside a
// parallel wave, i.e. whether calls into shared components must go
// through Defer. Callers use the guarded pattern
//
//	if ctx.Deferring() {
//	        ctx.Defer(func() { shared.Op(args) })
//	} else {
//	        shared.Op(args)
//	}
//
// so the serial hot path makes the call directly and constructs no
// closure (the simulator's zero-allocation regression tests pin this).
func (x *Ctx) Deferring() bool { return x.j != nil }

// Defer journals fn for replay after the current wave's barrier. Only
// legal while Deferring() reports true. fn must capture its inputs by
// value when they alias state the component mutates later in the same
// Tick — replay runs after the whole Tick, not at the call site.
func (x *Ctx) Defer(fn func()) { x.j.ops = append(x.j.ops, fn) }

// journal buffers a wave member's shared-state interactions, in program
// order, for coordinator replay after the barrier.
type journal struct {
	ops []func()
}

// replay runs and clears the buffered ops. Runs on the coordinator with
// the owner's ctx already unbound, so replayed ops execute against the
// kernel directly.
func (j *journal) replay() {
	ops := j.ops
	j.ops = ops[:0]
	for i := range ops {
		ops[i]()
		ops[i] = nil // release the closure
	}
}

// bind records a Bind call until prepare resolves tickables to
// registration indices.
type bind struct {
	x *Ctx
	t Tickable
}

// seg is one precomputed span of the registration order: either a run
// of coordinator-owned tickables or one contiguous wave of bound ones.
type seg struct {
	start, end int
	wave       bool
}

// parallel holds the worker-mode state hanging off a Kernel.
type parallel struct {
	workers  int
	binds    []bind
	prepared bool

	// minDispatch is the smallest busy-member count a wave hands to the
	// worker pool; below it the coordinator ticks the busy members
	// inline in registration order (which IS the serial sweep, so no
	// journaling is needed). Worker handoff costs microseconds per wave
	// against tick bodies measured in hundreds of nanoseconds, so small
	// waves are faster inline.
	minDispatch int

	// Per-tickable-index, filled by prepare:
	ctxOf []*Ctx    // bound context, nil = coordinator-owned (shared)
	js    []journal // wave journal (only used at bound indices)

	segs []seg // sweep plan, derived from ctxOf
	n    int   // len(k.tickables) the plan was built for

	busy []int // scratch: busy member indices of the current wave

	// allIdleLast is true when the previous stepped cycle's sweep elided
	// every component: the machine was provably idle at the end of that
	// cycle, so maybeSkip may reuse the verdict instead of re-polling.
	allIdleLast bool

	// waveHist counts wave widths on stepped cycles: waveHist[w] is how
	// many waves had exactly w busy (non-elided) members. Width 0 means
	// the whole wave was elided. waveInline/waveDispatched split the
	// nonzero-width waves by execution path (below/at the dispatch
	// threshold). Diagnostic only — deliberately NOT part of Result, so
	// serial-vs-parallel result equivalence stays byte-exact.
	waveHist       []uint64
	waveInline     uint64
	waveDispatched uint64

	tasks chan func()
	wg    sync.WaitGroup
}

// SetParallel switches the kernel to parallel execution with the given
// worker count (0 restores serial mode). Must be called before the run
// starts; bound groups are declared with Bind. Results are byte-identical
// to serial mode provided every component either is coordinator-owned or
// follows the Ctx journaling discipline for shared-state interactions.
func (k *Kernel) SetParallel(workers int) {
	if workers <= 0 {
		k.par = nil
		return
	}
	k.par = &parallel{workers: workers, minDispatch: 3}
}

// SetDispatchThreshold overrides the busy-member count at which a wave
// is handed to the worker pool instead of ticked inline (default 3,
// minimum 2). Lowering it to 2 forces the journaling path onto nearly
// every multi-busy cycle — the race-test configuration; raising it
// keeps small machines on the inline path. No-op in serial mode.
func (k *Kernel) SetDispatchThreshold(n int) {
	if k.par == nil {
		return
	}
	if n < 2 {
		n = 2
	}
	k.par.minDispatch = n
}

// Bind assigns tickables to ctx's group for parallel execution: during
// a wave they tick on a worker and their shared-state interactions are
// journaled through ctx. Tickables never bound stay coordinator-owned
// and tick inline, exactly as in serial mode. Bind panics if the kernel
// is not in parallel mode; binding a tickable that is never registered
// panics at run start.
func (k *Kernel) Bind(x *Ctx, ts ...Tickable) {
	if k.par == nil {
		panic("sim: Bind without SetParallel")
	}
	for _, t := range ts {
		k.par.binds = append(k.par.binds, bind{x: x, t: t})
	}
}

// WaveWidthHist returns the parallel kernel's wave-width histogram:
// index w holds the number of stepped-cycle waves that had exactly w
// busy members (0 = fully elided wave). Nil in serial mode. Kernel-level
// diagnostic, intentionally not part of any Result.
func (k *Kernel) WaveWidthHist() []uint64 {
	if k.par == nil {
		return nil
	}
	out := make([]uint64, len(k.par.waveHist))
	copy(out, k.par.waveHist)
	return out
}

// WaveDispatchStats reports how many nonzero-width waves ran inline on
// the coordinator versus dispatched to the worker pool. Zeros in serial
// mode.
func (k *Kernel) WaveDispatchStats() (inline, dispatched uint64) {
	if k.par == nil {
		return 0, 0
	}
	return k.par.waveInline, k.par.waveDispatched
}

// StopWorkers shuts down the worker pool (no-op in serial mode or when
// no wave ever dispatched). Idempotent; a subsequent run respawns the
// pool lazily.
func (k *Kernel) StopWorkers() {
	if k.par == nil || k.par.tasks == nil {
		return
	}
	close(k.par.tasks)
	k.par.tasks = nil
}

// prepare resolves binds to registration indices and sizes the
// per-index tables. Idempotent; called at run start so every Register
// and Bind has happened. The previous cycle's idle verdict never
// survives across runs: components may have been mutated between
// RunUntil calls (drain injection, crash experiments).
func (p *parallel) prepare(k *Kernel) {
	p.allIdleLast = false
	if p.prepared {
		if p.n != len(k.tickables) {
			p.resegment(k)
		}
		return
	}
	p.prepared = true
	n := len(k.tickables)
	p.ctxOf = make([]*Ctx, n)
	p.js = make([]journal, n)
	p.busy = make([]int, 0, n)
	for _, b := range p.binds {
		found := false
		for i := range k.tickables {
			if k.tickables[i].t == b.t {
				if p.ctxOf[i] != nil {
					panic("sim: tickable bound twice")
				}
				p.ctxOf[i] = b.x
				found = true
				break
			}
		}
		if !found {
			panic("sim: Bind of unregistered tickable")
		}
	}
	p.resegment(k)
}

// resegment rebuilds the sweep plan from ctxOf. Tickables registered
// after the tables were built (instrumentation sinks in tests) become
// coordinator-owned.
func (p *parallel) resegment(k *Kernel) {
	n := len(k.tickables)
	for len(p.ctxOf) < n {
		p.ctxOf = append(p.ctxOf, nil)
		p.js = append(p.js, journal{})
	}
	p.n = n
	p.segs = p.segs[:0]
	i := 0
	for i < n {
		wave := p.ctxOf[i] != nil
		end := i + 1
		for end < n && (p.ctxOf[end] != nil) == wave {
			end++
		}
		if wave {
			// A wave dispatches at most one task per ctx: two members
			// of one group inside the same contiguous run would race on
			// the group's journal binding.
			for a := i; a < end; a++ {
				for b := a + 1; b < end; b++ {
					if p.ctxOf[a] == p.ctxOf[b] {
						panic("sim: one ctx bound twice within a contiguous wave")
					}
				}
			}
		}
		p.segs = append(p.segs, seg{start: i, end: end, wave: wave})
		i = end
	}
}

// startWorkers spawns the pool on first use, so runs whose waves never
// reach the dispatch threshold (and serial-equivalence tests) cost no
// goroutines.
func (p *parallel) startWorkers() {
	if p.tasks != nil {
		return
	}
	p.tasks = make(chan func(), 64)
	for w := 0; w < p.workers; w++ {
		go func() {
			for fn := range p.tasks {
				fn()
			}
		}()
	}
}

// stepPar advances the clock by exactly one cycle in parallel mode.
// Discipline per cycle, mirroring Step:
//
//  1. fire due events in (cycle, seq) order (coordinator);
//  2. sweep the precomputed segments in registration order.
//     Coordinator-owned components tick inline (or are elided when
//     provably idle). For a wave, the coordinator polls each member's
//     Idle at its slot, elides idle members via SkipCycles(1), and
//     ticks the busy ones — inline (registration order, no journaling)
//     below the dispatch threshold, else concurrently on workers with
//     journaling. After the wave barrier, journals replay in
//     registration order.
//
// Idle polling at the member's slot sees exactly the state its serial
// Tick would have seen: everything registered earlier has already
// ticked or replayed. Within a wave, polling all members before any
// member ticks is sound because no wave member's Tick changes another
// group's idleness — cross-group effects all ride the journals, which
// replay after the barrier (asserted by the serial-equivalence suite).
func (k *Kernel) stepPar() {
	p := k.par
	if p.n != len(k.tickables) {
		p.resegment(k)
	}
	k.now++
	k.events.fire(k.now)
	anyBusy := false
	for s := range p.segs {
		sg := &p.segs[s]
		if !sg.wave {
			for i := sg.start; i < sg.end; i++ {
				e := &k.tickables[i]
				if e.q != nil && e.q.Idle() {
					if e.s != nil {
						e.s.SkipCycles(1)
					}
				} else {
					anyBusy = true
					e.t.Tick(k.now)
					k.ticks++
				}
			}
			continue
		}
		busy := p.busy[:0]
		for j := sg.start; j < sg.end; j++ {
			m := &k.tickables[j]
			if m.q != nil && m.q.Idle() {
				if m.s != nil {
					m.s.SkipCycles(1)
				}
			} else {
				busy = append(busy, j)
			}
		}
		for len(p.waveHist) <= len(busy) {
			p.waveHist = append(p.waveHist, 0)
		}
		p.waveHist[len(busy)]++
		if len(busy) == 0 {
			continue
		}
		anyBusy = true
		k.ticks += uint64(len(busy))
		if len(busy) < p.minDispatch {
			p.waveInline++
			// Inline: registration order on the coordinator is the
			// serial sweep itself, so no journaling is needed and the
			// guarded Defer pattern takes its direct branch.
			for _, j := range busy {
				k.tickables[j].t.Tick(k.now)
			}
		} else {
			p.waveDispatched++
			p.startWorkers()
			p.wg.Add(len(busy))
			for _, j := range busy {
				t := k.tickables[j].t
				p.ctxOf[j].j = &p.js[j]
				p.tasks <- func() {
					t.Tick(k.now)
					p.wg.Done()
				}
			}
			p.wg.Wait()
			for _, j := range busy {
				p.ctxOf[j].j = nil
				p.js[j].replay()
			}
		}
	}
	p.allIdleLast = !anyBusy
}
