package main

import (
	"strings"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/stats"
	"pcmap/internal/system"
)

// layerCounts accumulates the simulated per-layer counts of one unit of
// work. They are deterministic for a seed: a speed-only change must
// leave them bit-identical.
type layerCounts struct {
	events, instructions uint64
	stalls               map[string]uint64
	l2Miss, llcMiss      []float64
	wearCV               []float64

	reads, writes, deferred, rowServed, wowOver, partOvr uint64
	byVariant                                            map[config.Variant]*variantCounts
}

// variantCounts holds one variant's read-path figures, one sample per
// simulation or replay.
type variantCounts struct {
	reads, delayed uint64
	lat, p95, irlp []float64
}

// reportedVariants are the variants whose read path the per-layer
// report breaks out: the paper's baseline and full PCMap.
var reportedVariants = []config.Variant{config.Baseline, config.RWoWRDE}

func newLayerCounts() *layerCounts {
	return &layerCounts{stalls: map[string]uint64{}, byVariant: map[config.Variant]*variantCounts{}}
}

// addSystem folds one finished full-system simulation into the counts.
func (l *layerCounts) addSystem(sys *system.System, res *system.Results) {
	l.events += res.Events
	for _, c := range sys.Cores {
		l.instructions += c.Instructions()
	}
	for _, nc := range sys.Stats.Sub("cpu").Counters() {
		if i := strings.Index(nc.Name, "stall."); i >= 0 {
			l.stalls[nc.Name[i+len("stall."):]] += nc.Value
		}
	}
	l.l2Miss = append(l.l2Miss, res.L2MissRatio)
	l.llcMiss = append(l.llcMiss, res.LLCMissRatio)
	l.addMemory(res.Variant, res.Mem, res.IRLPAvg, res.WearCV)
}

// addMemory folds one run's memory-side metrics into the counts.
func (l *layerCounts) addMemory(v config.Variant, m *mem.Metrics, irlp, wearCV float64) {
	l.wearCV = append(l.wearCV, wearCV)
	l.reads += m.Reads.Value()
	l.writes += m.Writes.Value()
	l.deferred += m.ReadQStalls.Value() + m.WriteQStalls.Value()
	l.rowServed += m.RoWServed.Value()
	l.wowOver += m.WoWOverlapped.Value()
	l.partOvr += m.PartOverlapReads.Value() + m.PartOverlapWrites.Value()
	vc := l.byVariant[v]
	if vc == nil {
		vc = &variantCounts{}
		l.byVariant[v] = vc
	}
	vc.reads += m.Reads.Value()
	vc.delayed += m.ReadsDelayedByWrite.Value()
	vc.lat = append(vc.lat, m.ReadLatency.MeanNS())
	vc.p95 = append(vc.p95, m.ReadLatency.PercentileNS(95))
	vc.irlp = append(vc.irlp, irlp)
}

// readLatencyNS is v's read latency averaged over its samples.
func (l *layerCounts) readLatencyNS(v config.Variant) float64 {
	if vc := l.byVariant[v]; vc != nil {
		return stats.ArithMean(vc.lat)
	}
	return 0
}

// report writes the counts under their per-layer metric names. Layers a
// workload never enters report 0.
func (l *layerCounts) report(out map[string]float64) {
	out["sim.events"] = float64(l.events)
	out["cpu.instructions"] = float64(l.instructions)
	for _, k := range []string{"read_latency", "mshr_full", "writeq_full", "bank_conflict"} {
		out["cpu.stall."+k] = float64(l.stalls[k])
	}
	out["cache.l2_miss_ratio"] = stats.ArithMean(l.l2Miss)
	out["cache.llc_miss_ratio"] = stats.ArithMean(l.llcMiss)
	out["core.reads"] = float64(l.reads)
	out["core.writes"] = float64(l.writes)
	out["core.deferred"] = float64(l.deferred)
	out["core.row_served"] = float64(l.rowServed)
	out["core.wow_overlapped"] = float64(l.wowOver)
	out["core.part_overlap"] = float64(l.partOvr)
	out["pcm.wear_cv"] = stats.ArithMean(l.wearCV)
	out["core.reads_delayed_pct"] = 0
	if vc := l.byVariant[config.Baseline]; vc != nil && vc.reads > 0 {
		out["core.reads_delayed_pct"] = 100 * float64(vc.delayed) / float64(vc.reads)
	}
	for _, v := range reportedVariants {
		vc := l.byVariant[v]
		if vc == nil {
			vc = &variantCounts{}
		}
		out["core.read_latency_ns."+v.String()] = stats.ArithMean(vc.lat)
		out["core.read_latency_p95_ns."+v.String()] = stats.ArithMean(vc.p95)
		out["core.irlp_avg."+v.String()] = stats.ArithMean(vc.irlp)
	}
}
