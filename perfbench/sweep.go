package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/exp"
	"pcmap/internal/system"
	"pcmap/internal/workloads"
)

// The fig8-sweep per-core instruction budgets: a quarter of pcmapsim's
// default warmup and measure budgets (40k + 400k), so one sweep of the
// 72 simulations takes about 12 s on the reference host.
const sweepWarmup, sweepMeasure = 6_000, 60_000

// Paper targets for the RWoW-RDE IPC gain over Baseline (Section VI).
const paperGainMT, paperGainMP = 16.7, 15.6

// evalSpecs lists the Figures 8-11 sweep in a fixed order: the
// 12-workload evaluation set across the paper's six variants.
func evalSpecs() []exp.Spec {
	var specs []exp.Spec
	for _, n := range workloads.EvaluationSet() {
		for _, v := range config.Variants {
			specs = append(specs, exp.Spec{Workload: n, Variant: v})
		}
	}
	return specs
}

// setupSweep checks that every evaluation workload assembles into a
// system at the run's seed (building and releasing each once), so a
// bad input fails before the timed section.
func setupSweep(seed uint64, _ *spans) (body, error) {
	for _, n := range workloads.EvaluationSet() {
		sys, err := system.New(system.WithWorkload(n), system.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		sys.Release()
	}
	return func(budget time.Duration, sp *spans, rep *report) error {
		return runSweep(seed, budget, sp, rep)
	}, nil
}

// runSweep regenerates Figures 8, 10 and 11 (and the headline IPC
// gains) repeatedly within budget, each time from a fresh exp.Runner
// with one worker.
func runSweep(seed uint64, budget time.Duration, sp *spans, rep *report) error {
	ctx := context.Background()
	specs := evalSpecs()
	index := map[exp.Spec]int{}
	for i, s := range specs {
		index[s] = i
	}
	var (
		tm    = newTiming(len(specs), budget, rep.host)
		first = make([][]byte, len(specs)) // unit 0's encoded Results
		gap   float64
		lay   = newLayerCounts()
		hash  = sha256.New()
	)
	for u := 0; tm.next(u); u++ {
		r := exp.NewRunner()
		r.Warmup, r.Measure, r.Parallelism = sweepWarmup, sweepMeasure, 1
		r.SetSimulate(func(ctx context.Context, cfg *config.Config, wl string, warmup, measure uint64) (*system.Results, error) {
			t0 := cpuSeconds()
			h := sp.begin("system.new_s")
			sys, err := system.New(system.WithConfig(cfg), system.WithWorkload(wl), system.WithSeed(seed))
			sp.end(h)
			if err != nil {
				return nil, err
			}
			h = sp.begin("system.run_s")
			res, err := sys.RunCtx(ctx, warmup, measure)
			sp.end(h)
			if err == nil && u == 0 {
				for _, c := range sys.Cores {
					rep.Instructions += c.Instructions()
				}
				rep.Requests += res.Mem.Reads.Value() + res.Mem.Writes.Value()
				lay.addSystem(sys, res)
			}
			h = sp.begin("system.release_s")
			sys.Release()
			sp.end(h)
			tm.item(index[exp.Spec{Workload: wl, Variant: cfg.Variant}], cpuSeconds()-t0)
			return res, err
		})
		rep.Attempted += uint64(len(specs))
		tm.startUnit()

		var headline *exp.FigureResult
		err := func() error {
			for _, fig := range []func(context.Context, *exp.Runner, bool) (*exp.FigureResult, error){
				exp.Fig8, exp.Fig10, exp.Fig11} {
				if _, err := fig(ctx, r, false); err != nil {
					return err
				}
			}
			var err error
			headline, err = exp.Headline(ctx, r, false)
			return err
		}()
		if err != nil {
			rep.Failed += uint64(len(specs) - r.MemoLen())
			rep.Failures = append(rep.Failures, err.Error())
			continue
		}
		for i, s := range specs {
			res, err := r.Run(s) // memoized
			var enc []byte
			if err == nil {
				enc, err = system.EncodeResults(res)
			}
			switch {
			case err != nil:
				rep.Failed++
				rep.Failures = append(rep.Failures, err.Error())
			case u == 0:
				first[i] = enc
				hash.Write(enc)
			case first[i] != nil && !bytes.Equal(enc, first[i]):
				rep.Failed++
				rep.Failures = append(rep.Failures, fmt.Sprintf("unit %d: %s/%s differs from unit 0", u, s.Workload, s.Variant))
			}
		}
		ipc := headline.Series["IPC improvement"]
		gap = (math.Abs(100*ipc["MT"]-paperGainMT) + math.Abs(100*ipc["MP"]-paperGainMP)) / 2
		tm.endUnit()
	}
	rep.Fingerprint = hex.EncodeToString(hash.Sum(nil))
	rep.tm = tm
	rep.EndToEnd["paper_gap_pp"] = gap
	lay.report(rep.Layers)
	return nil
}
