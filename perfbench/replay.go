package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"time"

	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/sim"
	"pcmap/internal/system"
	"pcmap/internal/trace"
)

// Per-core instruction budgets of the full-system run that records a
// replay trace.
const replayWarmup, replayMeasure = 10_000, 600_000

// paperReadCut is Figure 10's RWoW-RDE effective read-latency reduction
// for the multithreaded workloads, in percent.
const paperReadCut = 50.0

// replaySetup returns the set-up of a replay workload: record app's PCM
// request stream from a full-system baseline run at the seed, then
// decode it.
func replaySetup(app string) func(seed uint64, sp *spans) (body, error) {
	return func(seed uint64, sp *spans) (body, error) {
		h := sp.begin("trace.gen_s")
		raw, instr, err := recordTrace(app, seed)
		sp.end(h)
		if err != nil {
			return nil, err
		}
		h = sp.begin("trace.decode_s")
		recs, err := trace.NewReader(bytes.NewReader(raw)).ReadAll()
		sp.end(h)
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			return nil, fmt.Errorf("%s trace is empty", app)
		}
		return func(budget time.Duration, sp *spans, rep *report) error {
			return runReplay(recs, instr, seed, budget, sp, rep)
		}, nil
	}
}

// recordTrace runs app on the baseline system and returns the encoded
// trace of every request it sent to PCM, with the instructions the run
// executed.
func recordTrace(app string, seed uint64) ([]byte, uint64, error) {
	sys, err := system.New(system.WithWorkload(app), system.WithSeed(seed))
	if err != nil {
		return nil, 0, err
	}
	defer sys.Release()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	detach := trace.Attach(sys.Mem, w)
	_, err = sys.Run(replayWarmup, replayMeasure)
	detach()
	if err != nil {
		return nil, 0, err
	}
	if err := w.Flush(); err != nil {
		return nil, 0, err
	}
	var instr uint64
	for _, c := range sys.Cores {
		instr += c.Instructions()
	}
	return buf.Bytes(), instr, nil
}

// runReplay replays recs open-loop against every registered variant,
// repeatedly within budget. Each replay must complete every record, and
// every unit must reproduce unit 0's metrics exactly. Each variant
// replay is one item of the unit.
func runReplay(recs []trace.Record, instr, seed uint64, budget time.Duration, sp *spans, rep *report) error {
	n := uint64(len(recs))
	var (
		tm    = newTiming(len(config.AllVariants), budget, rep.host)
		first = make([]string, len(config.AllVariants)) // unit 0's digests
		lay   = newLayerCounts()
		all   = sha256.New()
	)
	for u := 0; tm.next(u); u++ {
		tm.startUnit()
		for i, v := range config.AllVariants {
			t0 := cpuSeconds()
			cfg := config.Default().WithVariant(v)
			cfg.Seed = seed
			h := sp.begin("core.new_s")
			eng := sim.NewEngine()
			m, err := core.NewMemory(eng, cfg)
			sp.end(h)
			if err != nil {
				return err
			}
			h = sp.begin("trace.schedule_s")
			st := trace.Replay(eng, m, recs)
			sp.end(h)
			h = sp.begin("sim.engine_run_s")
			eng.Run()
			sp.end(h)
			h = sp.begin("core.finalize_s")
			met := m.Metrics()
			irlp, irlpMax := m.IRLP()
			sp.end(h)
			wear := m.WearImbalance()
			tm.item(i, cpuSeconds()-t0)

			rep.Attempted += n
			if u == 0 {
				rep.Requests += n
				rep.Instructions += instr
			}
			if st.Submitted != n || st.Completed != n {
				rep.Failed += n - min(st.Submitted, st.Completed)
				rep.Failures = append(rep.Failures, fmt.Sprintf("unit %d %s: %d records, %d submitted, %d completed",
					u, v, n, st.Submitted, st.Completed))
				continue
			}
			d := sha256.New()
			if err := digest(d, met, irlp, irlpMax, eng); err != nil {
				return err
			}
			sum := string(d.Sum(nil))
			switch {
			case u == 0:
				first[i] = sum
				all.Write([]byte(sum))
				lay.events += eng.Steps()
				lay.addMemory(v, met, irlp, wear)
			case first[i] != "" && sum != first[i]:
				rep.Failed += n
				rep.Failures = append(rep.Failures, fmt.Sprintf("unit %d %s: metrics differ from unit 0", u, v))
			}
		}
		tm.endUnit()
	}
	rep.Fingerprint = hex.EncodeToString(all.Sum(nil))
	rep.tm = tm
	cut := 0.0
	if base := lay.readLatencyNS(config.Baseline); base > 0 {
		cut = 100 * (1 - lay.readLatencyNS(config.RWoWRDE)/base)
	}
	rep.EndToEnd["paper_gap_pp"] = math.Abs(cut - paperReadCut)
	lay.report(rep.Layers)
	return nil
}

// digest hashes everything a replay produced: the merged metrics, the
// IRLP result, and the engine's final clock and event count.
func digest(h hash.Hash, met any, irlp float64, irlpMax int, eng *sim.Engine) error {
	enc, err := json.Marshal(met)
	if err != nil {
		return err
	}
	h.Write(enc)
	fmt.Fprintf(h, "%v %d %d %d", irlp, irlpMax, eng.Now(), eng.Steps())
	return nil
}
