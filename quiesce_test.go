package pmemaccel

// Skip-equivalence suite for the kernel's quiescence fast-forward
// (internal/sim): every workload x mechanism cell must produce an
// identical Result with fast-forward on and off. The Quiescer contract
// (DESIGN.md §10) promises byte-identical simulation output; these tests
// enforce it field by field, including the per-core cycle attribution
// that SkipCycles back-fills in bulk.

import (
	"reflect"
	"testing"

	"pmemaccel/internal/workload"
)

// runPair runs one cell with fast-forward on and off and returns both
// results with their Configs zeroed (the NoFastForward flag is the one
// intended difference; everything downstream of it must agree).
func runPair(t *testing.T, cfg Config) (ff, noff *Result) {
	t.Helper()
	b, m := cfg.Benchmark, cfg.Mechanism

	cfg.NoFastForward = false
	ff, err := Run(cfg)
	if err != nil {
		t.Fatalf("%v/%v fast-forward on: %v", b, m, err)
	}
	cfg.NoFastForward = true
	noff, err = Run(cfg)
	if err != nil {
		t.Fatalf("%v/%v fast-forward off: %v", b, m, err)
	}
	ff.Config = Config{}
	noff.Config = Config{}
	// SkippedCycles is the one counter that legitimately differs (it is
	// the audit trail for the flag under test): assert the expected
	// shape, then zero it so DeepEqual covers everything else.
	if noff.SkippedCycles != 0 {
		t.Errorf("%v/%v: NoFastForward run reported %d skipped cycles, want 0", b, m, noff.SkippedCycles)
	}
	ff.SkippedCycles = 0
	noff.SkippedCycles = 0
	return ff, noff
}

// assertPairIdentical runs cfg with fast-forward on and off and requires
// identical results.
func assertPairIdentical(t *testing.T, cfg Config) {
	t.Helper()
	ff, noff := runPair(t, cfg)
	if !reflect.DeepEqual(ff, noff) {
		t.Errorf("results diverge with fast-forward on vs off:\n  on:  %v\n  off: %v", ff, noff)
		// Narrow the divergence for the failure message.
		if ff.Cycles != noff.Cycles {
			t.Errorf("Cycles: %d vs %d", ff.Cycles, noff.Cycles)
		}
		for c := range ff.PerCore {
			if !reflect.DeepEqual(ff.PerCore[c], noff.PerCore[c]) {
				t.Errorf("core %d stats diverge:\n  on:  %+v\n  off: %+v",
					c, ff.PerCore[c], noff.PerCore[c])
			}
		}
	}
}

func TestFastForwardResultsIdenticalAllCells(t *testing.T) {
	for _, b := range workload.All {
		for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
			b, m := b, m
			t.Run(b.String()+"/"+m.String(), func(t *testing.T) {
				t.Parallel()
				assertPairIdentical(t, smokeConfig(b, m))
			})
		}
	}
}

// TestAttributionClosesUnderFastForward re-asserts the cycle-attribution
// invariant (every cycle of the performance window lands in exactly one
// bucket) on the fast-forward path, where skipped spans are bulk-charged
// by Core.SkipCycles instead of accrued tick by tick.
func TestAttributionClosesUnderFastForward(t *testing.T) {
	for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			res, err := Run(smokeConfig(workload.RBTree, m))
			if err != nil {
				t.Fatal(err)
			}
			for c, st := range res.PerCore {
				if got := st.Breakdown.Total(); got != res.Cycles {
					t.Errorf("core %d: breakdown total %d != cycles %d", c, got, res.Cycles)
				}
			}
		})
	}
}

// TestFastForwardActuallySkips guards against the suite passing
// vacuously: on a workload dominated by NVM latency the kernel must skip
// a nonzero number of cycles, or fast-forward is not engaging at all.
func TestFastForwardActuallySkips(t *testing.T) {
	s, err := NewSystem(smokeConfig(workload.RBTree, SP))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Kernel.Skipped() == 0 {
		t.Fatal("fast-forward skipped 0 cycles on an NVM-latency-bound run; quiescence is never detected")
	}
}

// TestNoFastForwardDisablesSkipping checks the escape hatch: with
// NoFastForward set the kernel must step every cycle.
func TestNoFastForwardDisablesSkipping(t *testing.T) {
	cfg := smokeConfig(workload.RBTree, SP)
	cfg.NoFastForward = true
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := s.Kernel.Skipped(); n != 0 {
		t.Fatalf("NoFastForward run skipped %d cycles, want 0", n)
	}
}

// contended16 is the 16-core bankshared cell at 50% contention: sixteen
// cores waiting on aborts, commits and a shared NVM channel, the regime
// where sleeping and the memoized scheduling window carry the most
// weight.
func contended16(m Kind) Config {
	cfg := smokeConfig(workload.BankShared, m)
	cfg.Cores = 16
	cfg.ContentionPct = 0.5
	return cfg
}

// TestFastForwardResultsIdenticalContended16 extends the fast-forward
// on/off pins to the contended 16-core cell. NoFastForward also turns off
// sleeping, so this pins the event wheel, sleeping cores and TCs and the
// memoized NVM window against plain stepping.
func TestFastForwardResultsIdenticalContended16(t *testing.T) {
	for _, m := range []Kind{Optimal, SP, TCache, Kiln} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			assertPairIdentical(t, contended16(m))
		})
	}
}

// TestSleepingActuallyElides guards against sleeping silently never
// engaging: on the contended 16-core TCache cell almost every core and
// TC tick is a wait, so the kernel must execute well under a quarter of
// the ticks plain stepping would (registered components x stepped
// cycles). The plain-stepping run supplies the registered count.
func TestSleepingActuallyElides(t *testing.T) {
	run := func(noFF bool) *System {
		cfg := contended16(TCache)
		cfg.NoFastForward = noFF
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	plain, slept := run(true), run(false)
	k := plain.Kernel
	if k.Ticks()%k.Now() != 0 {
		t.Fatalf("plain stepping ran %d ticks over %d cycles; every component must tick every cycle", k.Ticks(), k.Now())
	}
	registered := k.Ticks() / k.Now()
	stepped := slept.Kernel.Now() - slept.Kernel.Skipped()
	frac := float64(slept.Kernel.Ticks()) / float64(registered*stepped)
	t.Logf("%d ticks executed of %d components x %d stepped cycles (%.1f%%)",
		slept.Kernel.Ticks(), registered, stepped, 100*frac)
	if frac >= 0.25 {
		t.Fatalf("executed %.1f%% of registered x stepped ticks, want < 25%%: sleeping is not eliding waits", 100*frac)
	}
}
