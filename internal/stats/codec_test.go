package stats

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pcmap/internal/sim"
)

// roundTrip marshals v, unmarshals into fresh, and fails on error.
func roundTrip(t *testing.T, v, fresh any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := json.Unmarshal(data, fresh); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

func TestCounterRoundTrip(t *testing.T) {
	var c Counter
	c.Add(41)
	c.Inc()
	var got Counter
	roundTrip(t, c, &got)
	if got.Value() != 42 {
		t.Fatalf("count = %d, want 42", got.Value())
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	h := NewHistogram(9)
	for _, v := range []int{0, 1, 1, 8, 12, -3} {
		h.Add(v)
	}
	var got Histogram
	roundTrip(t, h, &got)
	if !reflect.DeepEqual(&got, h) {
		t.Fatalf("histogram did not round-trip: %+v vs %+v", got, *h)
	}
	// The zero value must round-trip too (it is a valid merge target).
	var zero, gotZero Histogram
	roundTrip(t, &zero, &gotZero)
	if !reflect.DeepEqual(&gotZero, &zero) {
		t.Fatal("zero-value histogram did not round-trip")
	}
}

func TestLatencyTrackerRoundTrip(t *testing.T) {
	l := NewLatencyTracker()
	for _, ns := range []int{3, 3, 250, 99999, 1 << 20} {
		l.Add(sim.Nanosecond.Times(ns))
	}
	var got LatencyTracker
	roundTrip(t, l, &got)
	if !reflect.DeepEqual(&got, l) {
		t.Fatal("latency tracker did not round-trip")
	}
	// The report-facing accessors must be bit-identical, since cached
	// results feed byte-identical report output.
	//pcmaplint:ignore floatcmp round-trip fidelity means bit-identical floats; an epsilon would mask codec drift
	if got.MeanNS() != l.MeanNS() || got.MaxNS() != l.MaxNS() || got.PercentileNS(95) != l.PercentileNS(95) {
		t.Fatalf("accessors drifted: mean %v vs %v", got.MeanNS(), l.MeanNS())
	}
}

func TestLatencyTrackerRejectsOutOfRangeSample(t *testing.T) {
	var got LatencyTracker
	if err := json.Unmarshal([]byte(`{"bucketCount":4,"samples":[[9,1]]}`), &got); err == nil {
		t.Fatal("out-of-range sample bucket must be rejected")
	}
}

func TestIRLPRoundTrip(t *testing.T) {
	x := NewIRLP()
	x.AddWriteWindow(10, 10, 50)
	x.AddChipService(10, 10, 30, 1)
	x.AddChipService(10, 20, 50, 3)

	// Unswept: the pending deltas themselves must survive.
	var raw IRLP
	roundTrip(t, x, &raw)
	if !reflect.DeepEqual(&raw, x) {
		t.Fatal("unswept IRLP did not round-trip")
	}

	// Partly swept: the watermark, the counts and the per-count ticks
	// survive, and both copies go on to the same result.
	x.AddWriteWindow(40, 45, 90)
	x.AddChipService(40, 40, 70, 2)
	if x.swept != 40 || len(x.busyTicks) == 0 || x.Pending() == 0 {
		t.Fatalf("tracker not partly swept: watermark %v, ticks %v, %d pending", x.swept, x.busyTicks, x.Pending())
	}
	var part IRLP
	roundTrip(t, x, &part)
	if !reflect.DeepEqual(&part, x) {
		t.Fatalf("partly swept IRLP did not round-trip:\n got %+v\nwant %+v", part, *x)
	}
	for _, y := range []*IRLP{x, &part} {
		y.AddChipService(60, 60, 80, 4)
	}
	part.Finalize(8)

	// Finalized: the summary must survive and Finalize stay idempotent.
	x.Finalize(8)
	if math.Float64bits(part.Average()) != math.Float64bits(x.Average()) ||
		part.MaxBusy() != x.MaxBusy() || part.WriteBusyTime() != x.WriteBusyTime() {
		t.Fatalf("decoded partly swept tracker diverged: avg %v vs %v", part.Average(), x.Average())
	}
	var fin IRLP
	roundTrip(t, x, &fin)
	if !reflect.DeepEqual(&fin, x) {
		t.Fatal("finalized IRLP did not round-trip")
	}
	fin.Finalize(8)
	//pcmaplint:ignore floatcmp round-trip of a stored value, no arithmetic in between
	if fin.Average() != x.Average() || fin.MaxBusy() != x.MaxBusy() || fin.WriteBusyTime() != x.WriteBusyTime() {
		t.Fatalf("finalized summary drifted: avg %v vs %v", fin.Average(), x.Average())
	}
}

// TestIRLPWireFormatUnchanged pins the bytes of an empty and of a
// finalized tracker, which result envelopes and golden outputs carry,
// to the encoding of the store-and-sort tracker.
func TestIRLPWireFormatUnchanged(t *testing.T) {
	x := NewIRLP()
	mustEncode := func(want string) {
		t.Helper()
		got, err := json.Marshal(x)
		if err != nil || string(got) != want {
			t.Fatalf("encoded %s (%v), want %s", got, err, want)
		}
	}
	mustEncode(`{"finalized":false,"avg":0,"maxBusy":0,"busyTime":0}`)
	x.AddWriteWindow(0, 0, 200)
	x.AddChipService(0, 0, 200, 1)
	x.AddChipService(100, 100, 200, 2)
	x.Finalize(8)
	mustEncode(`{"finalized":true,"avg":2,"maxBusy":3,"busyTime":200}`)
}

// TestIRLPDecodesUnorderedDeltas accepts the store-and-sort tracker's
// unfinalized encoding, whose deltas are in report order.
func TestIRLPDecodesUnorderedDeltas(t *testing.T) {
	var x IRLP
	data := `{"finalized":false,"avg":0,"maxBusy":0,"busyTime":0,` +
		`"deltas":[[100,1,0],[200,-1,0],[150,0,1],[190,0,-1],[0,0,1],[120,0,-1]]}`
	if err := json.Unmarshal([]byte(data), &x); err != nil {
		t.Fatal(err)
	}
	x.Finalize(8)
	// Inside the write: [100,120) 1 chip, [120,150) 0, [150,190) 1,
	// [190,200) 0.
	if x.WriteBusyTime() != 100 || x.MaxBusy() != 1 || math.Abs(x.Average()-0.6) > 1e-12 {
		t.Fatalf("got (%v, %v, %d), want (0.6, 100, 1)", x.Average(), x.WriteBusyTime(), x.MaxBusy())
	}
}

// TestIRLPRejectsImpossibleSweepState covers envelopes the online
// sweep could never have written: each must fail to decode rather
// than panic or grow memory later in the sweep.
func TestIRLPRejectsImpossibleSweepState(t *testing.T) {
	for _, data := range []string{
		`{"deltas":[[5,1,0]],"swept":10}`,                     // delta behind the watermark
		`{"swept":-1}`,                                        // negative watermark
		`{"chips":-1}`,                                        // negative count
		`{"deltas":[[5,1,-3]]}`,                               // chips go negative
		`{"deltas":[[5,1,3],[6,0,-3],[6,0,-1]]}`,              // ... after an instant
		`{"deltas":[[5,2,0]]}`,                                // write weight out of range
		`{"deltas":[[5,1,70000]]}`,                            // chip weight out of range
		`{"deltas":[[5,1,60000],[6,0,60000],[7,-1,-120000]]}`, // count past the bound
		`{"busyTicks":[1,-2]}`,                                // negative ticks
	} {
		var x IRLP
		if err := json.Unmarshal([]byte(data), &x); err == nil {
			t.Errorf("decoded %s", data)
		}
	}
}
