package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/sim"
)

// flushTxByWalk is FlushTx without the tag index: both walks visit every
// slot of the caches (ForEach), which is what the index must reproduce.
// It is the reference of TestTagIndexMatchesFullWalk.
func flushTxByWalk(h *Hierarchy, core int, txID uint64, done func()) {
	var lines []Line
	for _, c := range []*SetAssoc{h.l1[core], h.l2[core]} {
		c.ForEach(func(l *Line) {
			if l.Dirty && l.TxID == txID {
				lines = append(lines, Line{
					Addr: l.Addr, Valid: true, Dirty: true,
					Persistent: l.Persistent, TxID: txID, Uncommitted: true,
				})
				l.Dirty = false
				l.TxID = 0
				l.Uncommitted = false
			}
		})
	}
	h.stats.FlushedLines += uint64(len(lines))
	h.commitLocks++
	finish := func() {
		h.commitLocks--
		h.llc.ForEach(func(l *Line) {
			if l.TxID == txID {
				l.Uncommitted = false
				l.TxID = 0
			}
		})
		done()
	}
	for _, line := range lines {
		h.queueWriteback(line)
	}
	if h.txWB[txID] == 0 {
		h.k.Schedule(1, finish)
		return
	}
	h.txWBWait[txID] = finish
}

// kilnTwin is one of the two hierarchies the index test drives in
// lockstep: Kiln-style hooks (uncommitted LLC lines are pinned, and
// every third uncommitted overwrite of a committed dirty line installs a
// version placeholder in the same set).
type kilnTwin struct {
	k       *sim.Kernel
	h       *Hierarchy
	commits []string // "core@cycle" per completed commit
}

func noop() {}

// shadowBit maps a line to a placeholder address in the same LLC set.
const shadowBit = uint64(1) << 62

func newKilnTwin(cores int) *kilnTwin {
	tw := &kilnTwin{k: sim.NewKernel()}
	mem := &fakeMemory{k: tw.k, readLat: 40, writeLat: 50}
	updates := 0
	hooks := Hooks{
		AllowLLCVictim: func(l *Line) bool { return !l.Uncommitted },
		BeforeLLCDirtyUpdate: func(old Line, _ uint64, newUncommitted bool) {
			if old.Dirty && !old.Uncommitted && newUncommitted {
				if updates++; updates%3 == 0 {
					tw.h.InstallPlaceholder(old.Addr^shadowBit, old.Addr)
				}
			}
		},
	}
	cfg := Config{
		L1Size: 512, L1Ways: 2, L1Latency: 1,
		L2Size: 2 << 10, L2Ways: 4, L2Latency: 4,
		LLCSize: 8 << 10, LLCWays: 4, LLCLatency: 6,
		LLCPortsPerCycle: 1, LLCWriteOccupancy: 2,
	}
	tw.h = New(tw.k, cfg, mem, hooks, cores)
	return tw
}

// checkTagIndex verifies the index's superset invariant: every set
// holding a line with a nonzero TxID is tagged, and every nonzero word
// of the tagged bitmap has its summary bit.
func checkTagIndex(t *testing.T, c *SetAssoc) {
	t.Helper()
	for s := 0; s < c.sets; s++ {
		for _, l := range c.lines[s*c.ways : (s+1)*c.ways] {
			if l.TxID != 0 && c.tagged[s/64]&(1<<uint(s%64)) == 0 {
				t.Fatalf("%s: set %d holds tx %d but is not in the tag index", c.name, s, l.TxID)
			}
		}
	}
	for w, word := range c.tagged {
		if word != 0 && c.summary[w/64]&(1<<uint(w%64)) == 0 {
			t.Fatalf("%s: tagged word %d has no summary bit", c.name, w)
		}
	}
}

// sameState compares everything the flush walks can influence: every
// slot of every cache (LRU stamps included), the LLC queue, the counters
// and the commit completions so far.
func sameState(a, b *kilnTwin) error {
	caches := func(h *Hierarchy) []*SetAssoc {
		return append(append([]*SetAssoc{h.llc}, h.l1...), h.l2...)
	}
	ca, cb := caches(a.h), caches(b.h)
	for i := range ca {
		if !slices.Equal(ca[i].lines, cb[i].lines) {
			return fmt.Errorf("%s contents differ", ca[i].name)
		}
	}
	if len(a.h.queue) != len(b.h.queue) {
		return fmt.Errorf("LLC queue length %d vs %d", len(a.h.queue), len(b.h.queue))
	}
	for i, qa := range a.h.queue {
		qb := b.h.queue[i]
		if qa.kind != qb.kind || qa.line != qb.line || qa.enqueue != qb.enqueue ||
			(qa.fill == nil) != (qb.fill == nil) || qa.fill != nil && qa.fill.lineAddr != qb.fill.lineAddr {
			return fmt.Errorf("LLC queue entry %d: %+v vs %+v", i, qa, qb)
		}
	}
	if a.h.stats != b.h.stats {
		return fmt.Errorf("stats %+v vs %+v", a.h.stats, b.h.stats)
	}
	if !slices.Equal(a.commits, b.commits) {
		return fmt.Errorf("commits %v vs %v", a.commits, b.commits)
	}
	return nil
}

// Property: with multi-core transactional stores, loads, evictions at
// every level, placeholder installs and interleaved commits, FlushTx
// over the tag index leaves exactly the state the full-walk reference
// leaves — the same lines flushed, queued in the same order, and the
// same lines unpinned — and the index keeps its superset invariant.
func TestTagIndexMatchesFullWalk(t *testing.T) {
	const cores = 3
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx, ref := newKilnTwin(cores), newKilnTwin(cores)
		tags := make([]uint64, cores)
		flushing := make([]bool, cores)
		next := uint64(1)
		for c := range tags {
			tags[c] = next
			next++
		}
		lineAt := func() uint64 {
			base := memaddr.NVMBase
			if rng.Intn(5) == 0 {
				base = memaddr.DRAMBase
			}
			return base + uint64(rng.Intn(192))*memaddr.LineSize
		}
		for op := 0; op < 600; op++ {
			core := rng.Intn(cores)
			switch r := rng.Intn(20); {
			case r < 9 && !flushing[core]:
				addr := lineAt()
				tag := tags[core]
				if rng.Intn(4) == 0 {
					tag = 0 // a store outside any transaction
				}
				p := memaddr.IsPersistent(addr)
				for _, tw := range []*kilnTwin{idx, ref} {
					tw.h.Access(core, addr, true, p, tag, tag != 0, noop)
				}
			case r < 14:
				addr := lineAt()
				for _, tw := range []*kilnTwin{idx, ref} {
					tw.h.Access(core, addr, false, memaddr.IsPersistent(addr), 0, false, noop)
				}
			case r < 15:
				addr := lineAt()
				for _, tw := range []*kilnTwin{idx, ref} {
					tw.h.InstallPlaceholder(addr^shadowBit, addr)
				}
			case r < 17 && !flushing[core]:
				flushing[core] = true
				c, tag := core, tags[core]
				for _, tw := range []*kilnTwin{idx, ref} {
					tw := tw
					done := func() {
						tw.commits = append(tw.commits, fmt.Sprintf("%d@%d", c, tw.k.Now()))
						if tw == idx {
							flushing[c] = false
							tags[c] = next
							next++
						}
					}
					if tw == idx {
						tw.h.FlushTx(c, tag, done)
					} else {
						flushTxByWalk(tw.h, c, tag, done)
					}
				}
			default:
				n := 1 + rng.Intn(25)
				for i := 0; i < n; i++ {
					idx.k.Step()
					ref.k.Step()
				}
			}
			if err := sameState(idx, ref); err != nil {
				t.Fatalf("seed %d op %d: indexed FlushTx diverged from the full walk: %v", seed, op, err)
			}
			for _, c := range append(append([]*SetAssoc{idx.h.llc}, idx.h.l1...), idx.h.l2...) {
				checkTagIndex(t, c)
			}
		}
	}
}

// BenchmarkFlushTx: one Kiln commit per op — eight transactional stores
// that hit L1, then FlushTx until the lines are installed and unpinned.
// With the tag index the commit's cost does not grow with the LLC: the
// two sub-benchmarks differ only in LLC size (Scale 128's 512 KiB and
// Scale 1's 64 MiB, the Table 2 LLC).
func BenchmarkFlushTx(b *testing.B) {
	for _, llc := range []int{512 << 10, 64 << 20} {
		b.Run(fmt.Sprintf("LLC=%dKiB", llc>>10), func(b *testing.B) {
			k := sim.NewKernel()
			mem := &fakeMemory{k: k, readLat: 130, writeLat: 152}
			h := New(k, Config{LLCSize: llc}, mem, Hooks{
				AllowLLCVictim: func(l *Line) bool { return !l.Uncommitted },
			}, 4)
			committed := false
			done := func() { committed = true }
			for i := 0; i < b.N+1; i++ {
				if i == 1 {
					b.ResetTimer() // the first commit warms the lines into L1
				}
				tag := uint64(i + 1)
				for j := uint64(0); j < 8; j++ {
					h.Access(0, memaddr.NVMBase+j*memaddr.LineSize, true, true, tag, true, noop)
				}
				committed = false
				h.FlushTx(0, tag, done)
				for !committed {
					k.Step()
				}
			}
		})
	}
}
