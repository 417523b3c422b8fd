package pmemaccel

import (
	"fmt"
	"sort"

	"pmemaccel/internal/cache"
	"pmemaccel/internal/cpu"
	"pmemaccel/internal/mechanism"
	"pmemaccel/internal/memaddr"
	"pmemaccel/internal/memctrl"
	"pmemaccel/internal/memimage"
	"pmemaccel/internal/obs"
	"pmemaccel/internal/obs/metrics"
	"pmemaccel/internal/obs/txflight"
	"pmemaccel/internal/sim"
	"pmemaccel/internal/trace"
	"pmemaccel/internal/txcache"
	"pmemaccel/internal/workload"
)

// System is one assembled simulation: workloads generated, machine built,
// ready to run. Build with NewSystem; run with Run or step with
// RunToCycle for crash experiments.
type System struct {
	Config Config

	Kernel  *sim.Kernel
	Backend *memctrl.Backend
	Hier    *cache.Hierarchy
	Mech    mechanism.Mechanism
	Cores   []*cpu.Core
	Outputs []*workload.Output

	// Probe is the observability recorder — nil unless Config.Obs is
	// enabled. Export its contents with Probe.WriteChromeTrace and
	// Probe.WriteMetricsCSV after (or during) a run.
	Probe *obs.Probe

	// Metrics is the run-wide metrics registry — nil unless
	// Config.Obs.Metrics is set. Live histograms fill during the run;
	// counters and gauges mirrored from the component stats are added at
	// collection time, and the whole registry is snapshotted into
	// Result.Metrics.
	Metrics *metrics.Registry

	// Flight is the transaction flight recorder — nil unless
	// Config.Obs.TxSample > 0. Its aggregate is collected into
	// Result.TxFlight; its KTxStage spans land in Probe (when enabled).
	Flight *txflight.Recorder

	// Live is the volatile shadow image (newest store values); Durable
	// is the NVM content that survives a crash.
	Live    *memimage.Image
	Durable *memimage.Image

	// Arb is the shared-line ownership arbiter and Commits the global
	// durable-commit log — both nil unless some core runs a contended
	// benchmark (workload.BankShared). Commits orders the serialization
	// oracle; Arb's counters land in Result.Arb.
	Arb     *txcache.LineArbiter
	Commits *mechanism.CommitLog
}

// NewSystem generates the per-core workloads and assembles the machine.
func NewSystem(cfg Config) (*System, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{Config: cfg}

	// Workloads first: their base images seed the memory state. In
	// streaming mode the measured window is deferred — each output holds
	// a generator the core pulls records from during the run, so no
	// materialized trace (or per-transaction history) ever exists.
	shared := false
	for c := 0; c < cfg.Cores; c++ {
		bench := cfg.benchmarkFor(c)
		p := workload.DefaultParams(bench, c, cfg.Cores, cfg.Seed, cfg.InitialSize, cfg.Ops)
		if bench == workload.BankShared {
			shared = true
			if cfg.ContentionPct > 0 {
				p.ContentionPct = cfg.ContentionPct
			}
			if cfg.SharedAccounts > 0 {
				p.SharedAccounts = cfg.SharedAccounts
			}
		}
		var out *workload.Output
		if cfg.Streaming {
			out, err = workload.NewStream(bench, p)
		} else {
			out, err = workload.Generate(bench, p)
		}
		if err != nil {
			return nil, fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
		if cfg.Streaming && bench == workload.BankShared {
			// The shared-mode serialization oracle folds per-transaction
			// write sets in global commit order, so the contended
			// benchmark retains its transaction history even when
			// streaming: memory is O(committed write sets) — still far
			// below the full record trace streaming avoids.
			out.Recorder.SetRetainTxHistory(true)
		}
		s.Outputs = append(s.Outputs, out)
	}

	s.Kernel = sim.NewKernel()
	s.Kernel.SetFastForward(!cfg.NoFastForward)
	if cfg.Obs.Enabled {
		s.Probe = obs.NewProbe(cfg.Obs.TraceCapacity)
	}
	if cfg.Obs.Metrics {
		s.Metrics = metrics.NewRegistry()
	}
	if cfg.Obs.TxSample > 0 {
		s.Flight = txflight.New(cfg.Obs.TxSample, s.Probe)
	}
	s.Backend, err = memctrl.NewBackend(s.Kernel, cfg.topology(), cfg.nvmConfig(), cfg.dramConfig())
	if err != nil {
		return nil, fmt.Errorf("pmemaccel: %w", err)
	}
	s.Backend.SetProbe(s.Probe)
	s.Backend.SetMetrics(s.Metrics)

	// Address-space validation: every address the run will ever send to
	// the backend must classify into a mapped space, so an unmapped
	// address is a build-time error here rather than a mid-simulation
	// fault. The workload traces and base images are the only external
	// address sources (mechanism log regions are carved from the NVMLog
	// space by construction).
	for c, out := range s.Outputs {
		if err := validateAddressSpaces(out); err != nil {
			return nil, fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
	}

	// Memory images: the post-warmup state is architecturally live and
	// (for persistent words) already durable.
	s.Live = memimage.New()
	s.Durable = memimage.New()
	for _, out := range s.Outputs {
		out.BaseImage.ForEach(func(addr, v uint64) {
			s.Live.WriteWord(addr, v)
			if memaddr.IsPersistent(addr) {
				s.Durable.WriteWord(addr, v)
			}
		})
	}

	// Per-core kernel contexts: each core and its private persistence
	// machinery (its transaction cache, commit polls) share one context.
	// Serially the context is a plain passthrough; with ParWorkers > 0
	// it becomes the group binding for the parallel kernel.
	if cfg.ParWorkers > 0 {
		s.Kernel.SetParallel(cfg.ParWorkers)
	}
	ctxs := make([]*sim.Ctx, cfg.Cores)
	for c := range ctxs {
		ctxs[c] = s.Kernel.NewCtx()
	}

	if shared {
		s.Arb = txcache.NewLineArbiter(cfg.Cores)
		s.Commits = &mechanism.CommitLog{}
	}
	env := &mechanism.Env{
		K:       s.Kernel,
		Cores:   cfg.Cores,
		Ctxs:    ctxs,
		Mem:     s.Backend,
		Live:    s.Live,
		Durable: s.Durable,
		TC:      cfg.tcConfig(),
		Probe:   s.Probe,
		Metrics: s.Metrics,
		Flight:  s.Flight,
		Arb:     s.Arb,
		Commits: s.Commits,
	}
	s.Mech = mechanism.New(cfg.Mechanism, env)
	s.Hier = cache.New(s.Kernel, cfg.cacheConfig(), s.Backend, s.Mech.Hooks(), cfg.Cores)
	s.Hier.SetProbe(s.Probe)
	s.Hier.SetMetrics(s.Metrics.Histogram("side_probe_hit_latency_cycles"))
	s.Mech.Attach(s.Hier)

	for c := 0; c < cfg.Cores; c++ {
		rd := s.Mech.Rewrite(c, s.Outputs[c].NewReader())
		core := cpu.New(ctxs[c], c, cfg.CPU, s.Hier, s.Mech, rd,
			func(addr, value uint64) { s.Live.WriteWord(addr, value) })
		core.SetProbe(s.Probe)
		core.SetFlight(s.Flight)
		// Transaction latency and commit-wait distributions are
		// run-wide: every core observes into the same pair of
		// histograms (nil when metrics are off).
		core.SetMetrics(
			s.Metrics.Histogram("tx_latency_cycles"),
			s.Metrics.Histogram("commit_wait_cycles"),
		)
		s.Cores = append(s.Cores, core)
	}
	if cfg.ParWorkers > 0 {
		// Bind each group: the core plus (for the TCache mechanism) its
		// transaction cache tick on the same worker between barriers.
		// Controllers and the hierarchy stay coordinator-owned.
		tp, _ := s.Mech.(mechanism.TCIntrospector)
		for c := 0; c < cfg.Cores; c++ {
			if tp != nil {
				s.Kernel.Bind(ctxs[c], tp.TC(c), s.Cores[c])
			} else {
				s.Kernel.Bind(ctxs[c], s.Cores[c])
			}
		}
	}
	s.startSampler()
	return s, nil
}

// validateAddressSpaces rejects a workload whose trace or base image
// touches an address outside every mapped memory space. The backend's
// For would report such an address as a run-time fault; catching it here
// turns a mid-run surprise into a build-time error naming the record.
//
// In streaming mode there is no materialized trace to scan; the record
// half of this check runs incrementally instead — the generator's
// per-record validator (trace.StreamValidator) classifies every load and
// store address as it flows by, and a violation surfaces through
// Output.StreamErr after the run. Only the base image is checked eagerly.
func validateAddressSpaces(out *workload.Output) error {
	var err error
	out.BaseImage.ForEach(func(addr, _ uint64) {
		if err == nil && memaddr.Classify(addr) == memaddr.SpaceInvalid {
			err = fmt.Errorf("base image holds unmapped address %#x", addr)
		}
	})
	if err != nil {
		return err
	}
	if out.Trace == nil {
		return nil
	}
	for i, rec := range out.Trace.Records {
		switch rec.Kind {
		case trace.KindLoad, trace.KindStore, trace.KindCLWB, trace.KindCLFlush:
			if memaddr.Classify(rec.Addr) == memaddr.SpaceInvalid {
				return fmt.Errorf("trace record %d (%v) touches unmapped address %#x", i, rec.Kind, rec.Addr)
			}
		}
	}
	return nil
}

// startSampler registers the time-series sources and the periodic
// kernel callback that samples them. No-op unless the probe is live and
// a sampling period is configured.
func (s *System) startSampler() {
	if s.Probe == nil || s.Config.Obs.SampleEvery == 0 {
		return
	}
	if tp, ok := s.Mech.(mechanism.TCIntrospector); ok {
		for c := 0; c < s.Config.Cores; c++ {
			s.Probe.AddSource(fmt.Sprintf("tc%d_occupancy", c), tp.TC(c).Occupancy)
		}
	}
	s.Probe.AddSource("llc_demand_queue", func() int { r, _ := s.Hier.QueueDepths(); return r })
	s.Probe.AddSource("llc_writeback_queue", func() int { _, w := s.Hier.QueueDepths(); return w })
	s.Probe.AddSource("llc_inflight_fills", s.Hier.InflightFills)
	s.Backend.AddQueueSources(s.Probe)
	s.Probe.StartSampling(s.Kernel, s.Config.Obs.SampleEvery)
}

// quiesced reports whether every core finished and all persistence and
// memory machinery drained.
func (s *System) quiesced() bool {
	for _, c := range s.Cores {
		if !c.Finished() {
			return false
		}
	}
	return s.Mech.Drained() && s.Hier.Pending() == 0 && s.Backend.Quiescent()
}

// Run simulates to quiescence and collects the result.
func (s *System) Run() (*Result, error) {
	// Parallel-kernel worker goroutines live only for the run; serial
	// runs make this a no-op.
	defer s.Kernel.StopWorkers()
	endOfTrace, ok := s.Kernel.RunUntil(func() bool {
		for _, c := range s.Cores {
			if !c.Finished() {
				return false
			}
		}
		return true
	}, s.Config.MaxCycles)
	if !ok {
		return nil, fmt.Errorf("pmemaccel: run exceeded %d cycles (deadlock?)", s.Config.MaxCycles)
	}
	// Drain the persistence machinery and memory queues; this tail is
	// excluded from the performance window (cores are done) but keeps
	// functional state complete.
	if _, ok := s.Kernel.RunUntil(s.quiesced, s.Config.MaxCycles); !ok {
		return nil, fmt.Errorf("pmemaccel: post-run drain exceeded %d cycles", s.Config.MaxCycles)
	}
	// An unmapped-address fault is recorded sticky by the backend (the
	// request completes so the machine drains) and surfaced here; the
	// build-time address-space validation makes this unreachable for
	// generated workloads.
	if err := s.Backend.Fault(); err != nil {
		return nil, fmt.Errorf("pmemaccel: %w", err)
	}
	// A streaming generator that failed mid-run (workload error, invariant
	// violation, malformed record) looks exhausted to its core; surface the
	// sticky error now so a truncated run never passes as a clean one.
	for c, out := range s.Outputs {
		if err := out.StreamErr(); err != nil {
			return nil, fmt.Errorf("pmemaccel: core %d: %w", c, err)
		}
	}
	return s.collect(endOfTrace), nil
}

// RunToCycle advances the simulation to the given absolute cycle (the
// crash-injection primitive). It reports whether the workload finished
// earlier.
func (s *System) RunToCycle(cycle uint64) bool {
	done, _ := s.Kernel.RunUntil(s.quiesced, cycle)
	return done < cycle
}

// RecoveredDurable runs the mechanism's recovery over the current durable
// state — "crash now, reboot, recover".
func (s *System) RecoveredDurable() *memimage.Image {
	return s.Mech.Recover(s.Durable)
}

// ExpectedDurable builds the NVM image that recovery must produce given
// the per-core durably-committed transaction counts at this instant:
// the warmed-up base plus each core's committed prefix of write sets.
func (s *System) ExpectedDurable() *memimage.Image {
	img := memimage.New()
	s.Durable.ForEach(func(addr, v uint64) {
		// Base persistent words only: mechanism-specific regions
		// (logs) are excluded from the expectation domain.
		if memaddr.Classify(addr) == memaddr.SpaceNVM {
			img.WriteWord(addr, v)
		}
	})
	// Overwrite with base values (durable may have advanced past base).
	for _, out := range s.Outputs {
		out.BaseImage.ForEach(func(addr, v uint64) {
			if memaddr.Classify(addr) == memaddr.SpaceNVM {
				img.WriteWord(addr, v)
			}
		})
	}
	if s.Commits != nil {
		// Shared mode: committed write sets fold in the global durable
		// commit order the machine actually produced — cross-core writes
		// to the shared region serialize in exactly that order, so a
		// per-core fold would be wrong whenever two cores touched the
		// same word. Exact at quiescence (every committed transaction is
		// durably committed once the machine drains); mid-run
		// crash-prefix checking is a core-private-workload capability.
		committed := make([][]trace.TxRecord, len(s.Outputs))
		for c, out := range s.Outputs {
			committed[c] = out.Recorder.Committed()
		}
		idx := make([]int, len(s.Outputs))
		for _, c := range s.Commits.Order {
			if idx[c] >= len(committed[c]) {
				continue
			}
			for _, w := range committed[c][idx[c]].Writes {
				img.WriteWord(w.Addr, w.Value)
			}
			idx[c]++
		}
		return img
	}
	for c, out := range s.Outputs {
		if !out.Recorder.RetainsTxHistory() {
			// Streaming runs keep no per-transaction history — only the
			// incremental final image (base plus every committed write
			// set). That equals the per-prefix expectation exactly when
			// every committed transaction is durably committed, which
			// holds after Run drains the machine; mid-run crash-prefix
			// checking needs the materialized mode.
			out.FinalImage.ForEach(func(addr, v uint64) {
				if memaddr.Classify(addr) == memaddr.SpaceNVM {
					img.WriteWord(addr, v)
				}
			})
			continue
		}
		n := int(s.Mech.DurablyCommitted(c))
		committed := out.Recorder.Committed()
		if n > len(committed) {
			n = len(committed)
		}
		for _, tx := range committed[:n] {
			for _, w := range tx.Writes {
				img.WriteWord(w.Addr, w.Value)
			}
		}
	}
	return img
}

// CheckDurable compares a recovered image against an expected one over
// the NVM data space, returning up to max mismatches (both directions:
// lost committed writes and leaked uncommitted ones), lowest addresses
// first.
func CheckDurable(expected, recovered *memimage.Image, max int) []memimage.Diff {
	var diffs []memimage.Diff
	expected.ForEach(func(addr, v uint64) {
		if memaddr.Classify(addr) != memaddr.SpaceNVM {
			return
		}
		if got := recovered.ReadWord(addr); got != v {
			diffs = append(diffs, memimage.Diff{Addr: addr, A: v, B: got})
		}
	})
	// Words expected holds were compared above; any other nonzero
	// recovered word is a leak.
	recovered.ForEach(func(addr, v uint64) {
		if memaddr.Classify(addr) == memaddr.SpaceNVM && v != 0 && !expected.Written(addr) {
			diffs = append(diffs, memimage.Diff{Addr: addr, B: v})
		}
	})
	sort.Slice(diffs, func(i, j int) bool { return diffs[i].Addr < diffs[j].Addr })
	if max > 0 && len(diffs) > max {
		diffs = diffs[:max]
	}
	return diffs
}

// Run is the one-call entry point: build a system and run it to
// completion.
func Run(cfg Config) (*Result, error) {
	s, err := NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run()
}
