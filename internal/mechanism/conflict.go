package mechanism

import (
	"fmt"
	"slices"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/txcache"
)

// conflictGuard is the per-mechanism conflict-detection front end over the
// shared txcache.LineArbiter: the line-ownership probe every transactional
// store to the cross-core shared region passes through before it may enter
// a durability path. It is built only when the environment carries an
// arbiter (shared workloads); a nil guard is a no-op on every method, so
// core-private workloads pay nothing.
//
// Protocol, per store to a shared line L:
//
//  1. already held by this core → proceed;
//  2. a granted verdict for L is waiting → take ownership, proceed;
//  3. a denied verdict for L is waiting → the core lost arbitration:
//     clear the transaction's line bookkeeping (ownership it acquired is
//     released as far as durability allows) and tell the core to abort;
//  4. otherwise → post an ownership request to the coordinator (guarded
//     defer, so the serial and parallel kernels decide in the same order)
//     and stall the store one cycle.
//
// Ownership is held from first touch until the owning transaction's
// writes to the line are durable; the release point is mechanism-specific
// and expressed through commitPending/onAck (TCache drain acks),
// releaseTxNow (commit-record apply, flush completion, or plain TX_END),
// all of which run in coordinator contexts.
type conflictGuard struct {
	env   *Env
	cores []guardCore
}

type guardCore struct {
	// held marks shared lines this core currently owns.
	held map[uint64]bool
	// curLines counts the open transaction's durable writes per line.
	curLines map[uint64]int
	// pending counts committed-but-not-yet-durable writes per line
	// (TCache drain path); ownership releases when it reaches zero.
	pending map[uint64]int
	// sorted is sortedHeld's reusable result buffer.
	sorted []uint64
}

type guardDecision int

const (
	gdProceed guardDecision = iota
	gdRetry
	gdAbort
)

// newConflictGuard builds the guard, or nil when env carries no arbiter.
func newConflictGuard(env *Env) *conflictGuard {
	if env.Arb == nil {
		return nil
	}
	g := &conflictGuard{env: env, cores: make([]guardCore, env.Cores)}
	for i := range g.cores {
		g.cores[i] = guardCore{
			held:     make(map[uint64]bool),
			curLines: make(map[uint64]int),
			pending:  make(map[uint64]int),
		}
	}
	return g
}

// check runs the ownership probe for one store. Worker-safe: it touches
// only this core's guard state and verdict slot, and posts arbiter
// mutations through the core's guarded-defer path.
func (g *conflictGuard) check(core int, txID, addr uint64) guardDecision {
	if g == nil || txID == 0 || !memaddr.IsShared(addr) {
		return gdProceed
	}
	gc := &g.cores[core]
	line := memaddr.LineAddr(addr)
	if gc.held[line] {
		return gdProceed
	}
	arb := g.env.Arb
	v := arb.Verdict(core)
	if v.State != txcache.ArbNone && v.Line != line {
		panic(fmt.Sprintf("mechanism: core %d verdict for line %#x while storing to %#x", core, v.Line, line))
	}
	switch v.State {
	case txcache.ArbGranted:
		arb.ClearVerdict(core)
		gc.held[line] = true
		return gdProceed
	case txcache.ArbDenied:
		arb.ClearVerdict(core)
		g.loseTx(core)
		return gdAbort
	case txcache.ArbPending:
		// Decision still in flight (parallel kernel: it lands at this
		// cycle's journal replay); keep stalling.
		return gdRetry
	}
	// Post the request; the verdict slot is marked pending worker-side
	// so repeated ticks do not re-post, and the coordinator overwrites
	// it with the decision.
	arb.SetPending(core, line)
	x := g.env.Ctxs[core]
	if x.Deferring() {
		x.Defer(func() { arb.Acquire(line, core) })
	} else {
		arb.Acquire(line, core)
	}
	return gdRetry
}

// noteWrite records one durable write of the open transaction to addr's
// line. Call after check proceeded and the store entered a durability
// path; non-shared addresses are ignored.
func (g *conflictGuard) noteWrite(core int, addr uint64) {
	if g == nil || !memaddr.IsShared(addr) {
		return
	}
	g.cores[core].curLines[memaddr.LineAddr(addr)]++
}

// sortedHeld returns this core's held lines in address order, so arbiter
// mutations never depend on map iteration order. The result is valid
// until the next sortedHeld call for the core.
func (g *conflictGuard) sortedHeld(core int) []uint64 {
	gc := &g.cores[core]
	lines := gc.sorted[:0]
	for l := range gc.held {
		lines = append(lines, l)
	}
	slices.Sort(lines)
	gc.sorted = lines
	return lines
}

// releaseLines drops every ownership of core's in lines that nothing
// keeps. Coordinator contexts only.
func (g *conflictGuard) releaseLines(core int, lines []uint64) {
	for _, l := range lines {
		g.tryRelease(core, l)
	}
}

// tryRelease drops ownership of line if nothing keeps it: no open-tx
// writes, no committed writes still draining. Coordinator contexts only.
func (g *conflictGuard) tryRelease(core int, line uint64) {
	gc := &g.cores[core]
	if gc.held[line] && gc.curLines[line] == 0 && gc.pending[line] == 0 {
		g.env.Arb.Release(line, core)
		delete(gc.held, line)
	}
}

// loseTx clears the aborted transaction's line bookkeeping and schedules
// the ownership sweep. Runs worker-side from check; the arbiter
// mutations are deferred to the coordinator.
func (g *conflictGuard) loseTx(core int) {
	gc := &g.cores[core]
	for l := range gc.curLines {
		delete(gc.curLines, l)
	}
	lines := g.sortedHeld(core)
	if x := g.env.Ctxs[core]; x.Deferring() {
		lines = slices.Clone(lines) // replays after later sortedHeld calls
		x.Defer(func() { g.releaseLines(core, lines) })
	} else {
		g.releaseLines(core, lines)
	}
}

// commitPending moves the committing transaction's per-line write counts
// into the drain-pending set and sweeps ownership (lines acquired but
// never written release immediately; written lines release as their
// drain acks arrive). Coordinator contexts only.
func (g *conflictGuard) commitPending(core int) {
	if g == nil {
		return
	}
	gc := &g.cores[core]
	for l, n := range gc.curLines {
		gc.pending[l] += n
		delete(gc.curLines, l)
	}
	g.releaseLines(core, g.sortedHeld(core))
}

// releaseTxNow drops the committed transaction's line bookkeeping and
// every ownership nothing else keeps — the release point for mechanisms
// whose commit instant makes all the transaction's writes durable at
// once (flush completion, commit-record apply, plain TX_END).
// Coordinator contexts only.
func (g *conflictGuard) releaseTxNow(core int) {
	if g == nil {
		return
	}
	gc := &g.cores[core]
	for l := range gc.curLines {
		delete(gc.curLines, l)
	}
	g.releaseLines(core, g.sortedHeld(core))
}

// onAck observes one TC drain acknowledgment (TCache release path):
// when a shared line's last pending write drains, ownership releases.
// Coordinator contexts only (memory-completion events).
func (g *conflictGuard) onAck(core int, addr uint64) {
	if g == nil || !memaddr.IsShared(addr) {
		return
	}
	gc := &g.cores[core]
	line := memaddr.LineAddr(addr)
	if n, ok := gc.pending[line]; ok {
		if n <= 1 {
			delete(gc.pending, line)
			g.tryRelease(core, line)
		} else {
			gc.pending[line] = n - 1
		}
	}
}
