package main

import (
	"fmt"
	"math"

	"pmemaccel"
	"pmemaccel/internal/workload"
)

// cell is one simulation of a workload: a configuration built with
// NewSystem and run to completion with Run.
type cell struct {
	bench workload.Benchmark
	mech  pmemaccel.Kind
	cfg   pmemaccel.Config
}

func (c cell) name() string { return c.bench.String() + "/" + c.mech.String() }

// mechs is the paper's bar order; Optimal is every normalisation's base.
var mechs = []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln, pmemaccel.Optimal}

// workloadDef is a fixed list of cells. The simulator is a batch
// program with no arrival process, so a workload is measured as
// simulated work per host second over that list, run serially in one
// process (no -j pool, serial kernel).
type workloadDef struct {
	name  string
	why   string
	cells func(seed uint64) []cell
}

// workloads are the benchmark's three inputs; each stresses different
// layers of the simulator (see why).
var workloads = []workloadDef{
	{
		name: "paper_grid",
		why:  "the paper's 5x4 Figure 6-10 grid at 4 cores, materialised traces, obs off: every mechanism, allocation and trace materialisation",
		cells: func(seed uint64) []cell {
			var cs []cell
			for _, b := range workload.All {
				for _, m := range mechs {
					cfg := pmemaccel.DefaultConfig(b, m)
					cfg.Seed = seed
					cfg.Scale = 128
					cfg.Ops = 600
					cs = append(cs, cell{b, m, cfg})
				}
			}
			return cs
		},
	},
	{
		name: "contended_16c",
		why:  "bankshared at 16 cores and 50% contention under all four mechanisms: the wide tick loop, line arbiter, aborts and the NVM scheduler",
		cells: func(seed uint64) []cell {
			var cs []cell
			for _, m := range mechs {
				cfg := pmemaccel.DefaultConfig(workload.BankShared, m)
				cfg.Seed = seed
				cfg.Cores = 16
				cfg.ContentionPct = 0.5
				cfg.Scale = 128
				cfg.Ops = 500
				cs = append(cs, cell{workload.BankShared, m, cfg})
			}
			return cs
		},
	},
	{
		name: "large_stream",
		why:  "rbtree SP, TCache and Optimal at Scale 16 (8x the grid's footprint), streamed, metrics and flight recorder on: memory image and obs",
		cells: func(seed uint64) []cell {
			var cs []cell
			for _, m := range []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Optimal} {
				cfg := pmemaccel.DefaultConfig(workload.RBTree, m)
				cfg.Seed = seed
				cfg.Scale = 16
				cfg.Ops = 800
				cfg.Streaming = true
				cfg.Obs.Metrics = true
				cfg.Obs.TxSample = 16
				cs = append(cs, cell{workload.RBTree, m, cfg})
			}
			return cs
		},
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// cellSim is what the exact metrics need from one cell's Result.
type cellSim struct {
	bench        workload.Benchmark
	mech         pmemaccel.Kind
	cycles       uint64
	transactions uint64
	ipc          float64
	throughput   float64
}

// paperFig6 and paperFig7 are the paper's normalised IPC and committed
// throughput (Figures 6 and 7), averaged over its five benchmarks.
var (
	paperFig6 = map[pmemaccel.Kind]float64{pmemaccel.SP: 0.477, pmemaccel.TCache: 0.985, pmemaccel.Kiln: 0.878}
	paperFig7 = map[pmemaccel.Kind]float64{pmemaccel.SP: 0.306, pmemaccel.TCache: 0.985, pmemaccel.Kiln: 0.878}
)

// geomeanVsOptimal is the geometric mean over the workload's benchmarks
// of metric(mech)/metric(Optimal), as the paper normalises every figure.
// ok is false when the workload has no such pair.
func geomeanVsOptimal(cells []cellSim, m pmemaccel.Kind, metric func(cellSim) float64) (float64, bool) {
	base := map[workload.Benchmark]float64{}
	for _, c := range cells {
		if c.mech == pmemaccel.Optimal {
			base[c.bench] = metric(c)
		}
	}
	logSum, n := 0.0, 0
	for _, c := range cells {
		if b, ok := base[c.bench]; ok && c.mech == m && b > 0 && metric(c) > 0 {
			logSum += math.Log(metric(c) / b)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return math.Exp(logSum / float64(n)), true
}

// exactMetrics are the simulated-machine end-to-end metrics: pure
// functions of the cells' results, so they repeat bit for bit. A ratio
// reads 0 when failed cells left it without a base.
func exactMetrics(cells []cellSim) map[string]metric {
	var cycles, tx uint64
	for _, c := range cells {
		cycles += c.cycles
		tx += c.transactions
	}
	ipc := func(c cellSim) float64 { return c.ipc }
	thr := func(c cellSim) float64 { return c.throughput }
	tvo, _ := geomeanVsOptimal(cells, pmemaccel.TCache, thr)
	// paper_err compares every Figure 6/7 normalised geomean the
	// workload has (SP, TCache, Kiln each against Optimal) with the
	// paper's averages.
	var errSum float64
	var n int
	for _, mech := range []pmemaccel.Kind{pmemaccel.SP, pmemaccel.TCache, pmemaccel.Kiln} {
		if g, ok := geomeanVsOptimal(cells, mech, ipc); ok {
			errSum += math.Abs(g - paperFig6[mech])
			n++
		}
		if g, ok := geomeanVsOptimal(cells, mech, thr); ok {
			errSum += math.Abs(g - paperFig7[mech])
			n++
		}
	}
	var paperErr float64
	if n > 0 {
		paperErr = errSum / float64(n)
	}
	return map[string]metric{
		"sim_cycles":        {float64(cycles), "cycles"},
		"sim_tx_per_kcycle": {float64(tx) / float64(cycles) * 1000, "tx/kcycle"},
		"tcache_vs_optimal": {tvo, "ratio"},
		"paper_err":         {paperErr, "ratio"},
	}
}
