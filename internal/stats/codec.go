package stats

import (
	"encoding/json"
	"fmt"
	"sort"

	"pcmap/internal/sim"
)

// JSON codecs for the measurement types, so a *system.Results (and the
// mem.Metrics block inside it) round-trips through encoding/json with
// full fidelity. The experiment runner's disk-backed result cache
// depends on this: a resumed sweep must reproduce byte-identical report
// output from cached results, so every count, bucket, and float must
// survive the trip exactly. encoding/json emits float64 in the shortest
// form that parses back to the same bits, so sums and means stored here
// are exact, not approximations.

// MarshalJSON encodes the counter as its bare count.
func (c Counter) MarshalJSON() ([]byte, error) {
	return json.Marshal(c.n)
}

// UnmarshalJSON decodes a bare count.
func (c *Counter) UnmarshalJSON(data []byte) error {
	return json.Unmarshal(data, &c.n)
}

// histogramJSON is Histogram's wire form: the dense bucket slice (these
// histograms are small — Figure 2's has nine buckets) plus the sample
// total.
type histogramJSON struct {
	Buckets []uint64 `json:"buckets"`
	Total   uint64   `json:"total"`
}

// MarshalJSON encodes the histogram's buckets and total.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Buckets: h.buckets, Total: h.total})
}

// UnmarshalJSON decodes a histogram produced by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var w histogramJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	h.buckets, h.total = w.Buckets, w.Total
	return nil
}

// latencyJSON is LatencyTracker's wire form. The bucket array is large
// (100k one-nanosecond buckets) and almost entirely zero, so it is
// encoded sparsely as [bucket, count] pairs in ascending bucket order.
type latencyJSON struct {
	BucketCount int         `json:"bucketCount"`
	Samples     [][2]uint64 `json:"samples,omitempty"`
	Total       uint64      `json:"total"`
	SumNS       float64     `json:"sumNS"`
	MaxNS       float64     `json:"maxNS"`
}

// MarshalJSON encodes the tracker sparsely.
func (l *LatencyTracker) MarshalJSON() ([]byte, error) {
	w := latencyJSON{BucketCount: len(l.buckets), Total: l.total, SumNS: l.sumNS, MaxNS: l.maxNS}
	for i, n := range l.buckets {
		if n != 0 {
			w.Samples = append(w.Samples, [2]uint64{uint64(i), n})
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a tracker produced by MarshalJSON.
func (l *LatencyTracker) UnmarshalJSON(data []byte) error {
	var w latencyJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	l.buckets = nil
	if w.BucketCount > 0 {
		l.buckets = make([]uint64, w.BucketCount)
	}
	for _, s := range w.Samples {
		i := s[0]
		if i >= uint64(len(l.buckets)) {
			return fmt.Errorf("stats: latency sample bucket %d out of range %d", i, len(l.buckets))
		}
		l.buckets[i] = s[1]
	}
	l.total, l.sumNS, l.maxNS = w.Total, w.SumNS, w.MaxNS
	return nil
}

// irlpJSON is IRLP's wire form: the finalized summary plus, while
// unfinalized, the pending deltas as [at, write, chip] triples in heap
// order and the sweep state. Every sweep field is omitted when zero, so
// an empty or finalized tracker encodes exactly as before the sweep
// went online.
type irlpJSON struct {
	Finalized bool       `json:"finalized"`
	Avg       float64    `json:"avg"`
	MaxBusy   int        `json:"maxBusy"`
	BusyTime  sim.Time   `json:"busyTime"`
	Deltas    [][3]int64 `json:"deltas,omitempty"`
	Swept     sim.Time   `json:"swept,omitempty"`
	Writes    int        `json:"writes,omitempty"`
	Chips     int        `json:"chips,omitempty"`
	BusyTicks []int64    `json:"busyTicks,omitempty"`
}

// irlpMaxCount bounds the concurrent write and chip counts a decoded
// tracker may reach, so a crafted envelope cannot make the sweep grow
// its tick array without limit.
const irlpMaxCount = 1 << 16

// MarshalJSON encodes the tracker, finalized or not.
func (x *IRLP) MarshalJSON() ([]byte, error) {
	w := irlpJSON{Finalized: x.finalized, Avg: x.avg, MaxBusy: x.maxBusy, BusyTime: x.busyTime,
		Swept: x.swept, Writes: x.writes, Chips: x.chips, BusyTicks: x.busyTicks}
	for _, d := range x.pending {
		w.Deltas = append(w.Deltas, [3]int64{d.at.Ticks(), int64(d.write), int64(d.chip)})
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a tracker produced by MarshalJSON. It rejects a
// sweep state that the online sweep could not have reached: a delta
// before the watermark, or counts that go negative or past
// irlpMaxCount once the deltas are folded in time order.
func (x *IRLP) UnmarshalJSON(data []byte) error {
	var w irlpJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if err := w.validate(); err != nil {
		return err
	}
	*x = IRLP{finalized: w.Finalized, avg: w.Avg, maxBusy: w.MaxBusy, busyTime: w.BusyTime,
		swept: w.Swept, writes: w.Writes, chips: w.Chips, busyTicks: w.BusyTicks}
	for _, d := range w.Deltas {
		x.pending = append(x.pending, irlpDelta{at: sim.Time(d[0]), write: int32(d[1]), chip: int32(d[2])})
	}
	// Heap order is kept by MarshalJSON, where this is a no-op; deltas
	// of an older encoding arrive unordered.
	for i := (len(x.pending) - 2) >> 2; i >= 0; i-- {
		x.siftDown(i, x.pending[i])
	}
	return nil
}

func (w *irlpJSON) validate() error {
	if w.Swept < 0 {
		return fmt.Errorf("stats: IRLP watermark %d is negative", w.Swept.Ticks())
	}
	if len(w.BusyTicks) > irlpMaxCount+1 {
		return fmt.Errorf("stats: IRLP has %d chip-count buckets, more than %d", len(w.BusyTicks), irlpMaxCount+1)
	}
	for c, t := range w.BusyTicks {
		if t < 0 {
			return fmt.Errorf("stats: IRLP busy ticks %d at %d chips are negative", t, c)
		}
	}
	countsOK := func(writes, chips int64) bool {
		return writes >= 0 && writes <= irlpMaxCount && chips >= 0 && chips <= irlpMaxCount
	}
	writes, chips := int64(w.Writes), int64(w.Chips)
	if !countsOK(writes, chips) {
		return fmt.Errorf("stats: IRLP counts (%d writes, %d chips) out of [0, %d]", writes, chips, irlpMaxCount)
	}
	sorted := append([][3]int64(nil), w.Deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][0] < sorted[j][0] })
	for i, d := range sorted {
		if d[0] < w.Swept.Ticks() {
			return fmt.Errorf("stats: IRLP delta at %d lies before the watermark %d", d[0], w.Swept.Ticks())
		}
		if d[1] < -1 || d[1] > 1 || d[2] < -irlpMaxCount || d[2] > irlpMaxCount {
			return fmt.Errorf("stats: IRLP delta weights (%d, %d) out of range", d[1], d[2])
		}
		writes += d[1]
		chips += d[2]
		// Only the counts after an instant's last delta span time.
		if (i == len(sorted)-1 || sorted[i+1][0] > d[0]) && !countsOK(writes, chips) {
			return fmt.Errorf("stats: IRLP counts (%d writes, %d chips) after %d out of [0, %d]", writes, chips, d[0], irlpMaxCount)
		}
	}
	return nil
}
