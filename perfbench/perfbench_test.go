package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

// declared reads the metric names and units BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// TestTinyRunsEmitEveryMetric runs every workload at a tiny size, plain
// and traced, and checks the result line carries exactly the declared
// metrics with their units and no failed cell.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			var out bytes.Buffer
			res, err := bench(options{workload: w.name, seed: 1, seconds: 0.001, trace: trace, tiny: true}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed\n%s", w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.name, trace, name, m.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s not declared", w.name, trace, name)
				}
			}
		}
	}
}

// TestModuleSharesSumToOne profiles a real simulation and checks the
// attribution charges every sample to exactly one module.
func TestModuleSharesSumToOne(t *testing.T) {
	cfg := pmemaccel.DefaultConfig(workload.RBTree, pmemaccel.TCache)
	cfg.Scale, cfg.Ops = 128, 200
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := pmemaccel.Run(cfg); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	a, err := attribute(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if a.total == 0 {
		t.Fatal("profile has no samples")
	}
	shares, collect := a.shares()
	var sum float64
	for _, m := range modules {
		sum += shares[m]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("module shares sum to %v, want 1: %v", sum, shares)
	}
	if len(shares) != len(modules) {
		t.Errorf("shares for %d modules, want %d: %v", len(shares), len(modules), shares)
	}
	if shares["sim"]+shares["cpu"]+shares["cache"] == 0 {
		t.Errorf("no time in the simulation kernel, cores or caches: %v", shares)
	}
	if collect <= 0 || collect >= 1 {
		t.Errorf("collect share %v, want in (0, 1)", collect)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pmemaccel/internal/trace.(*Trace).Append":          "workload",
		"pmemaccel/internal/pheap.(*Heap).Alloc":            "workload",
		"pmemaccel/internal/cache.(*Hierarchy).Tick":        "cache",
		"pmemaccel/internal/obs/metrics.(*Histogram).Add":   "obs",
		"pmemaccel/internal/memimage.(*Image).WriteWord":    "memimage",
		"pmemaccel/internal/memaddr.Classify":               "other",
		"pmemaccel.(*System).collect":                       "pmemaccel",
		"pmemaccel.NewSystem.func1":                         "pmemaccel",
		"main.runPass":                                      "other",
		"runtime.mallocgc":                                  "",
		"runtime.mapassign_fast64":                          "",
		"pmemaccelx/internal/cpu.(*Core).Tick":              "",
		"pmemaccel/internal/mechanism.(*tcacheMech).Commit": "mechanism",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestWrongDigestFails checks a cell whose digest differs from the
// expected one counts as failed in every pass instead of passing.
func TestWrongDigestFails(t *testing.T) {
	o := options{workload: "contended_16c", seed: 1, seconds: 0.001, tiny: true}
	var out bytes.Buffer
	res, err := bench(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("self-consistent run failed %d of %d:\n%s", res.Failed, res.Attempted, out.String())
	}
	o.expected = map[string]string{"bankshared/kiln": "0123456789abcdef"}
	out.Reset()
	res, err = bench(o, &out)
	if err != nil {
		t.Fatal(err)
	}
	passes := res.Attempted / len(mechs)
	if res.Correct || res.Failed != passes {
		t.Errorf("wrong digest: correct %v, %d of %d cell runs failed, want %d", res.Correct, res.Failed, res.Attempted, passes)
	}
	if !strings.Contains(out.String(), "FAIL bankshared/kiln: result digest") {
		t.Errorf("failure not reported:\n%s", out.String())
	}
}

// TestRecordedDigestsCoverEveryCell checks every recorded seed of every
// workload names each of the workload's cells exactly.
func TestRecordedDigestsCoverEveryCell(t *testing.T) {
	for _, w := range workloads {
		for _, seed := range []uint64{devSeed, heldOutSeed} {
			rec := recordedDigests(w.name, seed)
			cells := w.cells(seed)
			if len(rec) != len(cells) {
				t.Errorf("%s seed %d: %d recorded digests for %d cells", w.name, seed, len(rec), len(cells))
			}
			for _, c := range cells {
				if len(rec[c.name()]) != 16 {
					t.Errorf("%s seed %d: cell %s has no recorded digest", w.name, seed, c.name())
				}
			}
		}
	}
}
