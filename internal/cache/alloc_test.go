package cache

import (
	"math/rand"
	"testing"

	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/sim"
)

// nvmChannel is a real memory controller with Table 2-like NVM timings,
// so a miss-to-memory fill runs the whole request path.
func nvmChannel(k *sim.Kernel) *memctrl.Controller {
	return memctrl.New(k, memctrl.Config{Name: "NVM", ReadHit: 30, ReadMiss: 130, WriteHit: 60, WriteMiss: 152})
}

// syncAccess runs one access of core 0 to completion. done must set
// *completed; it is built once by the caller so the measured path builds
// no closure of its own.
func syncAccess(k *sim.Kernel, h *Hierarchy, addr uint64, store bool, completed *bool, done func()) {
	*completed = false
	h.Access(0, addr, store, memaddr.IsPersistent(addr), 0, false, done)
	for !*completed {
		k.Step()
	}
}

// TestAccessAllocatesNothing pins the pooled request records: once the
// hierarchy is warm, an L1 hit, an L2 hit and a miss filled from memory
// (through a real controller) allocate nothing.
func TestAccessAllocatesNothing(t *testing.T) {
	k := sim.NewKernel()
	mem := nvmChannel(k)
	cfg := smallConfig()
	h := New(k, cfg, mem, Hooks{}, 1)
	completed := false
	done := func() { completed = true }
	access := func(addr uint64, store bool) { syncAccess(k, h, addr, store, &completed, done) }

	// A line pushed into L2 by a dirty L1 eviction stays there (clean
	// once promoted); dropping its L1 copy before each access makes every
	// access miss L1 and hit L2.
	stride := uint64(cfg.L1Size / cfg.L1Ways)
	inL2 := memaddr.NVMBase
	hot := memaddr.NVMBase + 64
	next := memaddr.NVMBase + 1<<20
	for _, a := range []uint64{inL2, inL2 + stride, inL2 + 2*stride, hot} {
		access(a, true)
	}
	// Each case counts the event it must produce once per run.
	cases := []struct {
		name  string
		run   func()
		count func() uint64
	}{
		{"L1 hit", func() { access(hot, true) }, func() uint64 { return h.L1(0).Hits }},
		{"L2 hit", func() { h.L1(0).Invalidate(inL2); access(inL2, false) }, func() uint64 { return h.L2(0).Hits }},
		{"memory fill", func() { next += memaddr.LineSize; access(next, false) },
			func() uint64 { return mem.Stats().Reads }},
	}
	for _, c := range cases {
		for i := 0; i < 64; i++ { // warm the pools, queues and event wheel
			c.run()
		}
		const runs = 200
		before := c.count()
		if allocs := testing.AllocsPerRun(runs, c.run); allocs != 0 {
			t.Errorf("%s: %.2f allocations per access, want 0", c.name, allocs)
		}
		if got := c.count() - before; got < runs {
			t.Errorf("%s: %d of %d accesses took the intended path", c.name, got, runs)
		}
	}
}

// BenchmarkHierarchyAccess: one load or store (one in four) per op at a
// random line of a 1 MiB footprint, run to completion through a Scale
// 128-sized hierarchy (32 KiB L1, 256 KiB L2, 512 KiB LLC) and a real
// NVM controller: a mix of L1, L2 and LLC hits, memory fills and dirty
// write-backs.
func BenchmarkHierarchyAccess(b *testing.B) {
	k := sim.NewKernel()
	h := New(k, Config{LLCSize: 512 << 10}, nvmChannel(k), Hooks{}, 1)
	rng := rand.New(rand.NewSource(1))
	type op struct {
		addr  uint64
		store bool
	}
	ops := make([]op, 1<<14)
	for i := range ops {
		ops[i] = op{memaddr.NVMBase + uint64(rng.Intn(1<<20/memaddr.LineSize))*memaddr.LineSize, rng.Intn(4) == 0}
	}
	completed := false
	done := func() { completed = true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := ops[i%len(ops)]
		syncAccess(k, h, o.addr, o.store, &completed, done)
	}
}
