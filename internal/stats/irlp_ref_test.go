package stats

import (
	"math"
	"sort"
	"strings"
	"testing"

	"pcmap/internal/sim"
)

// refIRLP is a brute-force reference: discretize the timeline at unit
// resolution and average the clamped busy-chip count over instants
// covered by at least one write window.
func refIRLP(writes, chips [][2]sim.Time, maxChips int) (avg float64, busy sim.Time, maxBusy int) {
	var lo, hi sim.Time
	first := true
	for _, w := range append(append([][2]sim.Time{}, writes...), chips...) {
		if first || w[0] < lo {
			lo = w[0]
		}
		if first || w[1] > hi {
			hi = w[1]
		}
		first = false
	}
	var integral float64
	for t := lo; t < hi; t++ {
		inWrite := false
		for _, w := range writes {
			if t >= w[0] && t < w[1] {
				inWrite = true
				break
			}
		}
		if !inWrite {
			continue
		}
		n := 0
		for _, c := range chips {
			if t >= c[0] && t < c[1] {
				n++
			}
		}
		if n > maxChips {
			n = maxChips
		}
		integral += float64(n)
		busy++
		if n > maxBusy {
			maxBusy = n
		}
	}
	if busy > 0 {
		avg = integral / float64(busy.Ticks())
	}
	return avg, busy, maxBusy
}

// sortSweep is the tracker's former algorithm, kept as the exactness
// oracle: store every delta of the run, sort them once, and sweep with
// a running floating-point integral of the clamped chip count.
type sortSweep struct{ deltas []irlpDelta }

func (o *sortSweep) addWriteWindow(start, end sim.Time) {
	if end > start {
		o.deltas = append(o.deltas, irlpDelta{at: start, write: 1}, irlpDelta{at: end, write: -1})
	}
}

// addChipService records n unit services, as the former per-chip
// reporting did.
func (o *sortSweep) addChipService(start, end sim.Time, n int) {
	for i := 0; end > start && i < n; i++ {
		o.deltas = append(o.deltas, irlpDelta{at: start, chip: 1}, irlpDelta{at: end, chip: -1})
	}
}

func (o *sortSweep) finalize(maxChips int) (avg float64, busy sim.Time, maxBusy int) {
	sort.Slice(o.deltas, func(i, j int) bool { return o.deltas[i].at < o.deltas[j].at })
	var (
		writes, chips int
		last          sim.Time
		integral      float64
	)
	for _, d := range o.deltas {
		if dt := d.at - last; writes > 0 && dt > 0 {
			busy += dt
			c := min(chips, maxChips)
			integral += float64(dt.Ticks()) * float64(c)
			maxBusy = max(maxBusy, c)
		}
		last = d.at
		writes += int(d.write)
		chips += int(d.chip)
	}
	if busy > 0 {
		avg = integral / float64(busy.Ticks())
	}
	return avg, busy, maxBusy
}

// interval is one report of a test stream: a write window when chips is
// zero, otherwise a chip service of that weight.
type interval struct {
	start, end sim.Time
	chips      int
}

// report feeds iv to the tracker at time now.
func (iv interval) report(x *IRLP, now sim.Time) {
	if iv.chips == 0 {
		x.AddWriteWindow(now, iv.start, iv.end)
	} else {
		x.AddChipService(now, iv.start, iv.end, iv.chips)
	}
}

// TestIRLPMatchesBruteForce cross-checks the online sweep against the
// discretized reference on many random interval sets, reported in start
// order with the simulated time at each start.
func TestIRLPMatchesBruteForce(t *testing.T) {
	rng := sim.NewRNG(123)
	for trial := 0; trial < 200; trial++ {
		var writes, chips [][2]sim.Time
		var stream []interval
		for i := 0; i < 1+rng.Intn(6); i++ {
			s := sim.Time(rng.Intn(80))
			e := s + sim.Time(1+rng.Intn(40))
			writes = append(writes, [2]sim.Time{s, e})
			stream = append(stream, interval{s, e, 0})
		}
		for i := 0; i < rng.Intn(12); i++ {
			s := sim.Time(rng.Intn(120))
			e := s + sim.Time(1+rng.Intn(30))
			chips = append(chips, [2]sim.Time{s, e})
			stream = append(stream, interval{s, e, 1})
		}
		sort.SliceStable(stream, func(i, j int) bool { return stream[i].start < stream[j].start })
		x := NewIRLP()
		for _, iv := range stream {
			iv.report(x, iv.start)
		}
		x.Finalize(8)
		wantAvg, wantBusy, wantMax := refIRLP(writes, chips, 8)
		if x.WriteBusyTime() != wantBusy {
			t.Fatalf("trial %d: busy %v, reference %v", trial, x.WriteBusyTime(), wantBusy)
		}
		if math.Abs(x.Average()-wantAvg) > 1e-9 {
			t.Fatalf("trial %d: avg %v, reference %v", trial, x.Average(), wantAvg)
		}
		if x.MaxBusy() != wantMax {
			t.Fatalf("trial %d: max %d, reference %d", trial, x.MaxBusy(), wantMax)
		}
	}
}

// TestIRLPOnlineMatchesSortSweep is the exactness property: random
// streams with a monotone clock, weighted chip counts, empty intervals,
// starts at and after the clock, simulation-sized timestamps and a
// mid-stream Reset must give bit-equal Average, MaxBusy and
// WriteBusyTime to the sort-based oracle fed the intervals reported
// after the reset.
func TestIRLPOnlineMatchesSortSweep(t *testing.T) {
	rng := sim.NewRNG(7)
	x := NewIRLP()
	for trial := 0; trial < 400; trial++ {
		x.Reset()
		var o sortSweep
		now := sim.Time(rng.Intn(1000))
		if rng.Intn(2) == 0 {
			now += sim.Time(1e12) // ~100 ms of simulated time
		}
		n := 1 + rng.Intn(300)
		resetAt := rng.Intn(n + n/4) // past n: no reset
		maxChips := 4 + rng.Intn(8)
		for i := 0; i < n; i++ {
			if i == resetAt {
				x.Reset()
				o = sortSweep{}
			}
			now += sim.Time(rng.Intn(60))
			start := now
			if rng.Intn(3) > 0 {
				start += sim.Time(rng.Intn(80))
			}
			iv := interval{start: start, end: start + sim.Time(rng.Intn(200))}
			if rng.Intn(3) > 0 {
				iv.chips = 1 + rng.Intn(10)
				o.addChipService(iv.start, iv.end, iv.chips)
			} else {
				o.addWriteWindow(iv.start, iv.end)
			}
			iv.report(x, now)
		}
		x.Finalize(maxChips)
		wantAvg, wantBusy, wantMax := o.finalize(maxChips)
		if math.Float64bits(x.Average()) != math.Float64bits(wantAvg) ||
			x.WriteBusyTime() != wantBusy || x.MaxBusy() != wantMax {
			t.Fatalf("trial %d: got (%v, %v, %d), sort sweep (%v, %v, %d)", trial,
				x.Average(), x.WriteBusyTime(), x.MaxBusy(), wantAvg, wantBusy, wantMax)
		}
	}
}

// TestIRLPPendingBoundedByInFlight streams many intervals with at most
// inFlight of them open at once: the pending heap must hold at most two
// deltas per open interval however long the run.
func TestIRLPPendingBoundedByInFlight(t *testing.T) {
	const inFlight = 16
	rng := sim.NewRNG(3)
	x := NewIRLP()
	var ends [inFlight]sim.Time
	now := sim.Time(0)
	for i := 0; i < 100_000; i++ {
		now += sim.Time(1 + rng.Intn(20))
		slot := i % inFlight
		if ends[slot] > now {
			now = ends[slot] // wait for the slot's interval to finish
		}
		start := now + sim.Time(rng.Intn(30))
		ends[slot] = start + sim.Time(1+rng.Intn(300))
		interval{start, ends[slot], slot % 3}.report(x, now)
		if x.Pending() > 2*inFlight {
			t.Fatalf("report %d: %d pending deltas for at most %d open intervals", i, x.Pending(), inFlight)
		}
	}
	x.Finalize(8)
	if x.Pending() != 0 || x.WriteBusyTime() == 0 {
		t.Fatalf("after Finalize: %d pending, busy %v", x.Pending(), x.WriteBusyTime())
	}
}

// TestIRLPReportBehindWatermarkPanics pins the online-sweep invariant:
// the timeline before the latest report's time is final, so an
// interval starting there is a caller bug, named with both times.
func TestIRLPReportBehindWatermarkPanics(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(100, 100, 400)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, sim.Time(150).String()) || !strings.Contains(msg, sim.Time(200).String()) {
			t.Fatalf("panic %q must name the start and the watermark", msg)
		}
	}()
	x.AddChipService(200, 150, 300, 1)
}

// TestIRLPIgnoresReportsAfterFinalize keeps Finalize's result fixed.
func TestIRLPIgnoresReportsAfterFinalize(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(0, 0, 100)
	x.AddChipService(0, 0, 100, 2)
	x.Finalize(8)
	x.AddChipService(50, 50, 100, 5)
	x.Finalize(8)
	if x.MaxBusy() != 2 || x.Pending() != 0 {
		t.Fatalf("max %d, pending %d after a late report", x.MaxBusy(), x.Pending())
	}
}
