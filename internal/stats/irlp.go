package stats

import (
	"fmt"

	"pcmap/internal/sim"
)

// IRLP measures intra-rank-level parallelism during writes, the paper's
// central metric (Section I footnote 2): over the union of time windows
// in which at least one write is in service on the rank, the
// time-average number of chips concurrently serving data words (reads or
// essential-word writes). ECC/PCC bookkeeping updates are modeled for
// contention but do not count as data service, which keeps the metric's
// maximum at the paper's 8.0 for an 8-data-chip rank.
//
// The tracker sweeps the timeline online, while the simulation runs.
// Components report service intervals as they are scheduled, together
// with the current simulated time; interval ends (and starts) that lie
// in the future wait in a small min-heap of pending deltas, and each
// report first folds every pending delta at or before its time into the
// sweep. The timeline up to that time — the swept watermark — is final,
// so no report may start before it. Memory is therefore bounded by the
// intervals still in flight, not by the length of the run.
//
// The sweep keeps integer write-busy ticks per concurrent chip count
// and applies the chip clamp only in Finalize. Every term and partial
// sum of the integral is then an integer below 2^53, so Average,
// MaxBusy and WriteBusyTime equal those of a sort-then-sweep over all
// recorded deltas bit for bit, whatever the order of the additions.
type IRLP struct {
	pending   []irlpDelta // 4-ary min-heap on at: deltas not yet swept
	swept     sim.Time    // watermark: the timeline before it is final
	writes    int         // writes in service at the watermark
	chips     int         // chip services in progress at the watermark
	busyTicks []int64     // write-busy ticks by unclamped chip count

	finalized bool
	avg       float64
	maxBusy   int
	busyTime  sim.Time
}

// irlpDelta changes the write and chip counts at one instant. A single
// delta carries the weight of every chip of one service.
type irlpDelta struct {
	at    sim.Time
	write int32 // +1 / -1 when a write enters / leaves service
	chip  int32 // +n / -n when n chips begin / end data service
}

// NewIRLP returns an empty tracker.
func NewIRLP() *IRLP { return &IRLP{} }

// Reset empties the tracker in place: pending deltas and the sweep
// state are dropped, so intervals in flight at the reset do not count.
// The heap and tick arrays keep their capacity so warmup-discard
// resets do not reallocate them.
func (x *IRLP) Reset() {
	x.pending = x.pending[:0]
	x.busyTicks = x.busyTicks[:0]
	x.swept, x.writes, x.chips = 0, 0, 0
	x.finalized = false
	x.avg, x.maxBusy, x.busyTime = 0, 0, 0
}

// AddWriteWindow records, at simulated time now, that a write request
// is in service on the rank during [start, end).
func (x *IRLP) AddWriteWindow(now, start, end sim.Time) {
	if end > start {
		x.report(now, start, end, 1, 0)
	}
}

// AddChipService records, at simulated time now, that chips chips are
// busy serving data during [start, end). Concurrent services on one
// chip each count; the memory model serializes per chip-bank, so such
// overlap is rare, and Finalize clamps the count to the rank's data
// chips.
func (x *IRLP) AddChipService(now, start, end sim.Time, chips int) {
	if end > start && chips > 0 {
		x.report(now, start, end, 0, int32(chips))
	}
}

// report sweeps to now and enters the interval's two deltas. A start at
// the watermark applies at once; anything later waits in the heap.
// Reports after Finalize are ignored, as the result is already fixed.
func (x *IRLP) report(now, start, end sim.Time, write, chip int32) {
	if x.finalized {
		return
	}
	x.advance(now)
	if start < x.swept {
		panic(fmt.Sprintf("stats: IRLP interval starting at %v reported behind the swept watermark %v", start, x.swept))
	}
	if start == x.swept {
		x.writes += int(write)
		x.chips += int(chip)
	} else {
		x.push(irlpDelta{at: start, write: write, chip: chip})
	}
	x.push(irlpDelta{at: end, write: -write, chip: -chip})
}

// advance folds every pending delta at or before t into the sweep and
// moves the watermark to t. Deltas that share an instant fold in any
// order: only the counts after the last of them span time.
func (x *IRLP) advance(t sim.Time) {
	for len(x.pending) > 0 && x.pending[0].at <= t {
		d := x.pop()
		x.span(d.at)
		x.writes += int(d.write)
		x.chips += int(d.chip)
	}
	x.span(t)
}

// span charges [swept, t) at the current counts and moves the
// watermark to t.
func (x *IRLP) span(t sim.Time) {
	if t <= x.swept {
		return
	}
	if x.writes > 0 {
		for x.chips >= len(x.busyTicks) {
			x.busyTicks = append(x.busyTicks, 0)
		}
		x.busyTicks[x.chips] += (t - x.swept).Ticks()
	}
	x.swept = t
}

// push adds d to the pending heap, moving displaced parents down into
// the hole rather than swapping.
func (x *IRLP) push(d irlpDelta) {
	h := append(x.pending, d)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].at <= d.at {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = d
	x.pending = h
}

// pop removes and returns the earliest pending delta.
func (x *IRLP) pop() irlpDelta {
	h := x.pending
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	x.pending = h
	if n > 0 {
		x.siftDown(0, last)
	}
	return root
}

// siftDown places d at hole i or below it, keeping the heap order of
// x.pending.
func (x *IRLP) siftDown(i int, d irlpDelta) {
	h := x.pending
	n := len(h)
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].at < h[m].at {
				m = j
			}
		}
		if h[m].at >= d.at {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = d
}

// Finalize drains the pending deltas and computes the summary, clamping
// the concurrent chip count to maxChips. It is idempotent.
func (x *IRLP) Finalize(maxChips int) {
	if x.finalized {
		return
	}
	x.finalized = true
	for len(x.pending) > 0 {
		x.advance(x.pending[0].at)
	}
	var integral, busy int64
	for c, ticks := range x.busyTicks {
		if ticks == 0 {
			continue
		}
		k := min(c, maxChips)
		busy += ticks
		integral += ticks * int64(k)
		x.maxBusy = max(x.maxBusy, k)
	}
	x.busyTime = sim.Time(busy)
	if busy > 0 {
		x.avg = float64(integral) / float64(busy)
	}
	x.pending, x.busyTicks = nil, nil
	x.swept, x.writes, x.chips = 0, 0, 0
}

// Pending returns the number of deltas waiting to be swept: at most two
// per interval still in flight at the watermark.
func (x *IRLP) Pending() int { return len(x.pending) }

// Average returns the time-average IRLP during write-busy windows.
// Finalize must have been called.
func (x *IRLP) Average() float64 { return x.avg }

// MaxBusy returns the maximum instantaneous chip parallelism observed
// inside write-busy windows.
func (x *IRLP) MaxBusy() int { return x.maxBusy }

// WriteBusyTime returns the total length of the write-busy windows.
func (x *IRLP) WriteBusyTime() sim.Time { return x.busyTime }
