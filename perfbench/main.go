// Command perfbench measures the simulator's own host cost on three
// fixed workloads and checks the simulated outputs while doing so. It
// is one run of the repository benchmark: run.py builds it, starts it
// in a fresh process per run, and turns its JSON report into the
// benchmark's result line.
//
//	perfbench -workload fig8-sweep -seed 1 -seconds 20
//	perfbench -workload replay-write -seed 1 -seconds 20 -spans s.json -cpuprofile c.pprof
//
// Every run has two sections. Set-up builds the run's inputs (several
// times; the median is reported) and ends with runtime.GC(), so set-up
// garbage is never collected on the timed clock. The timed section then
// repeats a fixed unit of simulation work for about -seconds of wall
// time (at least twice), on a single simulation goroutine. Metrics are
// per unit of work. Host costs are process CPU seconds divided by the
// run's host factor, measured by a fixed reference kernel sampled after
// every set-up round and every item (see hostSpeed).
// With -spans, spans around each public call into a simulator layer are
// kept in memory and written out at exit; with -cpuprofile, the timed
// section is CPU-profiled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// Set-up is repeated at least minSetupRounds times and until it has
// used setupBudgetS CPU seconds, at most maxSetupRounds times; setup_s
// is the rounds' median. setupSamples host-speed samples follow each
// round.
const (
	minSetupRounds, maxSetupRounds = 5, 25
	setupBudgetS                   = 2.0
	setupSamples                   = 4
)

// report is the JSON document perfbench writes to stdout.
type report struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	NProc    int    `json:"nproc"`
	GoVer    string `json:"go_version"`

	// Attempted counts simulations (fig8-sweep) or replayed requests
	// (replay-*); Failed counts those whose output check failed.
	Attempted   uint64   `json:"attempted"`
	Failed      uint64   `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	Fingerprint string   `json:"fingerprint"`

	// Units is how many times the workload's unit of work (one sweep,
	// or one replay of the trace against every variant) ran in the
	// timed section; Items is how many items one unit holds (the
	// samples behind sim_s_p50/p85, each the median of Units repeats).
	Units       int `json:"units"`
	Items       int `json:"items"`
	SetupRounds int `json:"setup_rounds"`
	// TimedS is the timed section's wall-clock seconds, interference
	// and host samples included. HostFactor is the run's mean reference
	// kernel time over refSeconds, from HostSamples samples; JobCPUS is
	// one unit's process CPU seconds before division by HostFactor.
	TimedS      float64 `json:"timed_s"`
	HostFactor  float64 `json:"host_factor"`
	HostSamples int     `json:"host_samples"`
	JobCPUS     float64 `json:"job_cpu_s"`
	// Instructions and Requests are the simulated work of one unit:
	// instructions simulated (or represented by the replayed trace) and
	// PCM requests serviced.
	Instructions uint64 `json:"instructions"`
	Requests     uint64 `json:"requests"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	Layers   map[string]float64 `json:"layers"`

	host *hostSpeed // host-speed samples of the whole run
	tm   *timing    // per-item timings, filled by the workload body
}

// body runs the timed section and fills rep.
type body func(budget time.Duration, sp *spans, rep *report) error

// setups maps each workload to its set-up, which builds the run's
// inputs and returns the timed body. Set-up runs several times; only
// the last body is timed.
var setups = map[string]func(seed uint64, sp *spans) (body, error){
	"fig8-sweep":   setupSweep,
	"replay-write": replaySetup("freqmine"),
	"replay-read":  replaySetup("facesim"),
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: fig8-sweep, replay-write or replay-read")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "wall-clock budget of the timed section in seconds")
	spansOut := flag.String("spans", "", "record layer spans and write them to this file")
	cpuOut := flag.String("cpuprofile", "", "CPU-profile the timed section into this file")
	flag.Parse()

	setup, ok := setups[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d < 1", *seconds)
	}
	var sp *spans
	if *spansOut != "" {
		sp = newSpans()
	}

	rep := &report{Workload: *name, Seed: *seed, NProc: runtime.NumCPU(), GoVer: runtime.Version(),
		EndToEnd: map[string]float64{}, Layers: map[string]float64{}, host: &hostSpeed{}}

	// Set-up, repeated; only the last round's spans are kept so the
	// set-up spans describe one set-up, like setup_s.
	var (
		b        body
		setupDur []float64
	)
	for spent := 0.0; len(setupDur) < maxSetupRounds &&
		(len(setupDur) < minSetupRounds || spent < setupBudgetS); {
		sp.reset()
		runtime.GC() // each round starts from a collected heap
		t0 := cpuSeconds()
		var err error
		if b, err = setup(*seed, sp); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupDur = append(setupDur, cpuSeconds()-t0)
		spent += setupDur[len(setupDur)-1]
		for j := 0; j < setupSamples; j++ {
			rep.host.sample()
		}
	}
	rep.SetupRounds = len(setupDur)
	setupSampling := rep.host.wall
	runtime.GC()
	sp.markTimed()

	var prof *os.File
	if *cpuOut != "" {
		f, err := os.Create(*cpuOut)
		if err != nil {
			return err
		}
		prof = f
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	err := b(time.Duration(*seconds)*time.Second, sp, rep)
	rep.TimedS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	rep.Units = rep.tm.repeats()
	items := rep.tm.itemMedians()
	rep.Items = len(items)
	rep.HostFactor, rep.HostSamples = rep.host.factor(), len(rep.host.cpu)
	rep.JobCPUS = rep.tm.unitSeconds()
	job := rep.JobCPUS / rep.HostFactor

	e := rep.EndToEnd
	e["job_s"] = job
	e["sim_s_p50"] = quantile(items, 0.50) / rep.HostFactor
	e["sim_s_p85"] = quantile(items, 0.85) / rep.HostFactor
	e["setup_s"] = quantile(setupDur, 0.5) / rep.HostFactor
	e["alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20) / float64(rep.Units)
	e["peak_rss_mb"] = peakRSSMB()
	e["sim_mips"] = float64(rep.Instructions) / job / 1e6
	e["replay_kreq_per_s"] = float64(rep.Requests) / job / 1e3

	if sp != nil {
		timedSampling := rep.host.wall - setupSampling
		sp.summarize(rep.TimedS-timedSampling.Seconds(), rep.Units, rep.Layers)
		rep.Layers["system.run_ns_per_instr"] = 0
		if run := rep.Layers["system.run_s"]; run > 0 {
			rep.Layers["system.run_ns_per_instr"] = run / float64(rep.Instructions) * 1e9
		}
		if err := sp.write(*spansOut); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// quantile returns the q-quantile of xs by linear interpolation
// between order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}
