package main

import (
	"strings"

	"pmemaccel"
	"pmemaccel/internal/cpu"
)

// layerCounts sums one pass's simulated per-layer counters over the
// workload's cells. Every field is a deterministic count.
type layerCounts struct {
	cycles, skipped, coreCycles         uint64
	instructions, commits, aborts       uint64
	wasted                              uint64
	buckets                             [9]uint64
	l1Hits, l1Misses, l2Hits, l2Misses  uint64
	llcHits, llcMisses, dropped         uint64
	sideProbes, sideHits                uint64
	llcWaitSum, llcServed               uint64
	tcWrites, tcFallback, tcFullRejects uint64
	tcOccupancyPeak                     int
	arbAcquires, arbConflicts           uint64
	nvmReads, nvmWrites                 uint64
	nvmRowHits, nvmRowMisses            uint64
	nvmReadLatSum, nvmBusy, nvmDrains   uint64
	nvmChannelCycles                    uint64
	durableWords                        uint64
	durableDiffs                        uint64
}

// add folds one finished cell into the sums. s must be the system r
// came from.
func (l *layerCounts) add(s *pmemaccel.System, r *pmemaccel.Result) {
	l.cycles += r.Cycles
	l.skipped += r.SkippedCycles
	l.coreCycles += uint64(len(r.PerCore)) * r.Cycles
	for _, st := range r.PerCore {
		l.instructions += st.Instructions
		l.commits += st.Transactions
		l.aborts += st.TxAborts
		l.wasted += st.WastedInstructions
		for i, v := range st.Breakdown.Values() {
			l.buckets[i] += v
		}
	}
	for c := range s.Cores {
		l.l1Hits += s.Hier.L1(c).Hits
		l.l1Misses += s.Hier.L1(c).Misses
		l.l2Hits += s.Hier.L2(c).Hits
		l.l2Misses += s.Hier.L2(c).Misses
	}
	l.llcHits += s.Hier.LLC().Hits
	l.llcMisses += s.Hier.LLC().Misses
	l.dropped += r.Hier.DroppedEvictions
	l.sideProbes += r.Hier.SidePathProbes
	l.sideHits += r.Hier.SidePathHits
	l.llcWaitSum += r.Hier.LLCQueueWaitSum
	l.llcServed += r.Hier.LLCQueueServed
	for _, tc := range r.TC {
		l.tcWrites += tc.Writes
		l.tcFallback += tc.FallbackWrites
		l.tcFullRejects += tc.FullRejects
		l.tcOccupancyPeak = max(l.tcOccupancyPeak, tc.OccupancyPeak)
	}
	l.arbAcquires += r.Arb.Acquires
	l.arbConflicts += r.Arb.Conflicts
	l.nvmReads += r.NVM.Reads
	l.nvmWrites += r.NVM.Writes
	l.nvmRowHits += r.NVM.RowHits
	l.nvmRowMisses += r.NVM.RowMisses
	l.nvmReadLatSum += r.NVM.ReadLatencySum
	l.nvmBusy += r.NVM.BusyCycles
	l.nvmDrains += r.NVM.DrainEntries
	l.nvmChannelCycles += uint64(len(r.PerNVMChannel)) * r.Cycles
	l.durableWords += uint64(s.Durable.Len())
	if r.DurableDiffCount > 0 {
		l.durableDiffs += uint64(r.DurableDiffCount)
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics names the simulated per-layer metrics.
func (l *layerCounts) metrics() map[string]metric {
	m := map[string]metric{
		"sim.skipped_frac":          {ratio(l.skipped, l.cycles), "fraction"},
		"cpu.instructions":          {float64(l.instructions), "count"},
		"cpu.commit_ratio":          {ratio(l.commits, l.commits+l.aborts), "fraction"},
		"cpu.wasted_inst_frac":      {ratio(l.wasted, l.instructions), "fraction"},
		"cache.l1_miss_rate":        {ratio(l.l1Misses, l.l1Hits+l.l1Misses), "fraction"},
		"cache.l2_miss_rate":        {ratio(l.l2Misses, l.l2Hits+l.l2Misses), "fraction"},
		"cache.llc_miss_rate":       {ratio(l.llcMisses, l.llcHits+l.llcMisses), "fraction"},
		"cache.dropped_evictions":   {float64(l.dropped), "count"},
		"cache.side_probe_hit_rate": {ratio(l.sideHits, l.sideProbes), "fraction"},
		"cache.llc_queue_wait_avg":  {ratio(l.llcWaitSum, l.llcServed), "cycles"},
		"txcache.writes":            {float64(l.tcWrites), "count"},
		"txcache.fallback_writes":   {float64(l.tcFallback), "count"},
		"txcache.full_rejects":      {float64(l.tcFullRejects), "count"},
		"txcache.occupancy_peak":    {float64(l.tcOccupancyPeak), "count"},
		"txcache.arb_conflict_rate": {ratio(l.arbConflicts, l.arbAcquires), "fraction"},
		"mechanism.durable_diffs":   {float64(l.durableDiffs), "count"},
		"memctrl.nvm_reads":         {float64(l.nvmReads), "count"},
		"memctrl.nvm_writes":        {float64(l.nvmWrites), "count"},
		"memctrl.nvm_row_hit_rate":  {ratio(l.nvmRowHits, l.nvmRowHits+l.nvmRowMisses), "fraction"},
		"memctrl.nvm_read_lat_avg":  {ratio(l.nvmReadLatSum, l.nvmReads), "cycles"},
		"memctrl.nvm_busy_frac":     {ratio(l.nvmBusy, l.nvmChannelCycles), "fraction"},
		"memctrl.nvm_drains":        {float64(l.nvmDrains), "count"},
		"memimage.durable_words":    {float64(l.durableWords), "count"},
	}
	for i, name := range cpu.BreakdownCategories {
		m["cpu."+strings.ReplaceAll(name, "-", "_")+"_frac"] = metric{ratio(l.buckets[i], l.coreCycles), "fraction"}
	}
	return m
}
