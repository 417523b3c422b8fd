package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// skipRecorder is an always-idle component that records where every
// fast-forward jump lands (the cycle of the Step that follows it).
type skipRecorder struct {
	k      *Kernel
	ticks  uint64
	skips  uint64
	onSkip func(landing uint64)
}

func (r *skipRecorder) Tick(uint64) { r.ticks++ }
func (r *skipRecorder) Idle() bool  { return true }
func (r *skipRecorder) SkipCycles(n uint64) {
	r.skips += n
	r.onSkip(r.k.Now() + n + 1)
}

// TestEventOrderMatchesReferenceAcrossWheelHorizon drives the event
// queue with random batches whose delays straddle the timing wheel's
// horizon — including ScheduleAt into the past and at the current cycle,
// and same-cycle ties between heap-overflow and wheel events — across
// many wheel wrap-arounds with fast-forward on. Firing order must equal
// a reference sort by (cycle, seq), Pending must be exact after every
// operation, and every fast-forward jump must land on the earliest
// pending event (or the run limit).
func TestEventOrderMatchesReferenceAcrossWheelHorizon(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()

		type ev struct {
			id, cycle, seq uint64
		}
		var all []ev // every event ever scheduled, in seq order
		pending := map[uint64]ev{}
		var fired []uint64 // ids in firing order
		var seq uint64

		earliest := func() (uint64, bool) {
			var best uint64
			ok := false
			for _, e := range pending {
				if !ok || e.cycle < best {
					best, ok = e.cycle, true
				}
			}
			return best, ok
		}
		var limit uint64
		rec := &skipRecorder{k: k}
		rec.onSkip = func(landing uint64) {
			want := limit
			if c, ok := earliest(); ok && c < want {
				want = c
			}
			if landing != want {
				t.Fatalf("seed %d: skip from %d lands on %d, want %d", seed, k.Now(), landing, want)
			}
		}
		k.Register(rec)

		checkPending := func() {
			if k.Pending() != len(pending) {
				t.Fatalf("seed %d at cycle %d: Pending() = %d, want %d", seed, k.Now(), k.Pending(), len(pending))
			}
		}

		var schedule func(at uint64)
		// batch schedules a random burst at the current cycle. Events
		// fired from inside the run schedule further batches, so
		// schedules happen at many different "now" values.
		batch := func() {
			n := 1 + rng.Intn(6)
			for i := 0; i < n; i++ {
				switch r := rng.Intn(10); {
				case r == 0 && k.Now() > 0:
					schedule(uint64(rng.Int63n(int64(k.Now())))) // strictly past
				case r == 1:
					schedule(k.Now()) // current cycle
				case r == 2 && len(pending) > 0:
					// Tie with an already pending event: when that one
					// went to the overflow heap and this one lands in
					// the wheel, the heap event must still fire first.
					for _, e := range pending {
						schedule(e.cycle)
						break
					}
				default:
					schedule(k.Now() + uint64(rng.Intn(3001)))
				}
			}
		}
		schedule = func(at uint64) {
			eff := at
			if eff <= k.Now() {
				eff = k.Now() + 1
			}
			seq++
			e := ev{id: seq, cycle: eff, seq: seq}
			all = append(all, e)
			pending[e.id] = e
			k.ScheduleAt(at, func() {
				if k.Now() != e.cycle {
					t.Fatalf("seed %d: event %d fired at %d, want %d", seed, e.id, k.Now(), e.cycle)
				}
				delete(pending, e.id)
				fired = append(fired, e.id)
				if rng.Intn(3) == 0 && len(all) < 4000 {
					batch()
				}
			})
			checkPending()
		}

		for round := 0; round < 60; round++ {
			batch()
			limit = k.Now() + uint64(1+rng.Intn(2500))
			k.RunUntil(func() bool { checkPending(); return false }, limit)
			if k.Now() != limit {
				t.Fatalf("seed %d: RunUntil stopped at %d, want limit %d", seed, k.Now(), limit)
			}
			checkPending()
		}
		limit = ^uint64(0)
		if !k.Drain(k.Now() + 10000) {
			t.Fatalf("seed %d: queue did not drain", seed)
		}
		checkPending()

		ref := append([]ev(nil), all...)
		sort.Slice(ref, func(i, j int) bool {
			if ref[i].cycle != ref[j].cycle {
				return ref[i].cycle < ref[j].cycle
			}
			return ref[i].seq < ref[j].seq
		})
		if len(fired) != len(ref) {
			t.Fatalf("seed %d: fired %d events, scheduled %d", seed, len(fired), len(ref))
		}
		for i := range ref {
			if fired[i] != ref[i].id {
				t.Fatalf("seed %d: firing %d is event %d, reference order says %d", seed, i, fired[i], ref[i].id)
			}
		}
		if k.Now() < 20*wheelSize {
			t.Fatalf("seed %d: run ended at cycle %d; want many wheel wrap-arounds", seed, k.Now())
		}
		if rec.skips == 0 {
			t.Fatalf("seed %d: fast-forward never engaged", seed)
		}
		if rec.ticks+rec.skips != k.Now() {
			t.Fatalf("seed %d: ticks %d + skipped %d != %d cycles", seed, rec.ticks, rec.skips, k.Now())
		}
	}
}

// BenchmarkKernelEvents measures the event queue on a mixed load: each
// fired event reschedules itself, mostly a few cycles out (memory
// completions, per-cycle polls) and occasionally beyond the wheel's
// horizon, with 64 events in flight. The run goes through RunUntil with
// no components, so every gap is fast-forwarded and each op is one
// schedule, one next-event search and one fire.
func BenchmarkKernelEvents(b *testing.B) {
	k := NewKernel()
	delays := [16]uint64{1, 1, 1, 1, 2, 2, 3, 4, 6, 10, 20, 40, 100, 300, 1500, 3000}
	var fn func()
	n := 0
	fn = func() {
		n++
		k.Schedule(delays[n&15], fn)
	}
	for j := 0; j < 64; j++ {
		k.Schedule(uint64(j), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.RunUntil(func() bool { return n >= b.N }, ^uint64(0))
}
