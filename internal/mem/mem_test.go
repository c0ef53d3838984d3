package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"pcmap/internal/sim"
)

// defaultGeometry mirrors config.Default().Memory's shape (Table I).
// Spelled out locally because mem cannot import config: config depends
// on this package for its unit types.
func defaultGeometry() Geometry {
	return Geometry{Channels: 4, Banks: 8, RowBytes: 8 << 10, CapacityBytes: 8 << 30}
}

func TestAddrMapRoundTrip(t *testing.T) {
	a, err := NewAddrMap(defaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(raw uint64) bool {
		addr := (raw % (8 << 30)) &^ 63 // line-aligned, in capacity
		c := a.Decode(addr)
		return a.Encode(c) == addr
	}, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestAddrMapChannelInterleave(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	for i := uint64(0); i < 16; i++ {
		c := a.Decode(i * 64)
		if c.Channel != int(i%4) {
			t.Fatalf("line %d on channel %d, want %d", i, c.Channel, i%4)
		}
	}
}

func TestAddrMapRowLocality(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	// Consecutive channel-local lines (stride = 4 lines) share a row
	// until the column bits wrap.
	base := a.Decode(0)
	for i := uint64(1); i < uint64(a.LinesPerRow()); i++ {
		c := a.Decode(i * 64 * 4)
		if c.Channel != base.Channel || c.Bank != base.Bank || c.Row != base.Row {
			t.Fatalf("channel-local line %d left the row: %+v vs %+v", i, c, base)
		}
		if c.Col != int(i) {
			t.Fatalf("column %d, want %d", c.Col, i)
		}
	}
	next := a.Decode(uint64(a.LinesPerRow()) * 64 * 4)
	if next.Bank == base.Bank && next.Row == base.Row {
		t.Fatal("row should change after LinesPerRow channel-local lines")
	}
}

func TestAddrMapRotIdxStrides(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	// Successive channel-local lines must get successive rotation
	// indices so all 8 (and 10) rotation offsets occur.
	seen8 := map[uint64]bool{}
	seen10 := map[uint64]bool{}
	for i := uint64(0); i < 40; i++ {
		c := a.Decode(i * 64 * 4)
		seen8[c.RotIdx%8] = true
		seen10[c.RotIdx%10] = true
	}
	if len(seen8) != 8 || len(seen10) != 10 {
		t.Fatalf("rotation offsets covered: mod8=%d mod10=%d", len(seen8), len(seen10))
	}
}

func TestAddrMapUniqueLineIdx(t *testing.T) {
	a, _ := NewAddrMap(defaultGeometry())
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 100000; i++ {
		addr := i * 64
		c := a.Decode(addr)
		key := uint64(c.Channel)<<60 | c.LineIdx
		if prev, ok := seen[key]; ok {
			t.Fatalf("addresses %#x and %#x collide on channel-local line index", prev, addr)
		}
		seen[key] = addr
	}
}

func TestAddrMapRejectsBadGeometry(t *testing.T) {
	g := defaultGeometry()
	g.Channels = 3
	if _, err := NewAddrMap(g); err == nil {
		t.Fatal("non-power-of-two channels should be rejected")
	}
}

func TestBusSerializesAndTurnsAround(t *testing.T) {
	b := Bus{Turnaround: 10}
	s, e := b.Acquire(100, 40, false)
	if s != 100 || e != 140 {
		t.Fatalf("first acquire [%v,%v)", s, e)
	}
	// Same direction chains without turnaround.
	s, e = b.Acquire(100, 40, false)
	if s != 140 || e != 180 {
		t.Fatalf("second acquire [%v,%v)", s, e)
	}
	// Direction change adds turnaround.
	s, _ = b.Acquire(100, 40, true)
	if s != 190 {
		t.Fatalf("turnaround start %v, want 190", s)
	}
	if b.Busy != 120 {
		t.Fatalf("busy accumulation %v, want 120", b.Busy)
	}
}

func TestBusFirstUseNoTurnaround(t *testing.T) {
	b := Bus{Turnaround: 10}
	if s, _ := b.Acquire(0, 5, true); s != 0 {
		t.Fatalf("first use should not pay turnaround, start %v", s)
	}
}

func TestQueueFRFCFS(t *testing.T) {
	q := NewQueue(8)
	mk := func(addr uint64, arrive sim.Time) *Request {
		return &Request{Kind: Read, Addr: addr, Arrive: arrive}
	}
	r1, r2, r3 := mk(100, 1), mk(200, 2), mk(300, 3)
	for _, r := range []*Request{r1, r2, r3} {
		if !q.Push(r) {
			t.Fatal("push failed")
		}
	}
	ready := func(r *Request) bool { return r != r1 } // r1 blocked
	rowHit := func(r *Request) bool { return r == r3 }
	if got := q.SelectFRFCFS(ready, rowHit); got != r3 {
		t.Fatalf("FR-FCFS should pick the row hit, got %v", got.Addr)
	}
	noHit := func(*Request) bool { return false }
	if got := q.SelectFRFCFS(ready, noHit); got != r2 {
		t.Fatalf("without hits, oldest ready wins, got %v", got.Addr)
	}
}

func TestQueueCapacityAndRemove(t *testing.T) {
	q := NewQueue(2)
	a, b, c := &Request{}, &Request{}, &Request{}
	if !q.Push(a) || !q.Push(b) {
		t.Fatal("pushes within capacity must succeed")
	}
	if q.Push(c) {
		t.Fatal("push beyond capacity must fail")
	}
	if q.Occupancy() != 1.0 {
		t.Fatalf("occupancy %v", q.Occupancy())
	}
	q.Remove(a)
	if q.Len() != 1 || q.Oldest(nil) != b {
		t.Fatal("remove should preserve order")
	}
	q.Remove(a) // absent: no-op
	if q.Len() != 1 {
		t.Fatal("removing absent element changed the queue")
	}
}

func TestMetricsMerge(t *testing.T) {
	a, b := NewMetrics(), NewMetrics()
	a.Reads.Add(10)
	b.Reads.Add(5)
	a.ReadLatency.Add(sim.NS(100))
	b.ReadLatency.Add(sim.NS(300))
	a.DirtyWords.Add(1)
	b.DirtyWords.Add(3)
	a.NoteArrival(100)
	b.NoteArrival(50)
	a.NoteDone(500)
	b.NoteDone(900)
	a.Merge(b)
	if a.Reads.Value() != 15 {
		t.Fatalf("merged reads %d", a.Reads.Value())
	}
	if got := a.ReadLatency.MeanNS(); got != 200 {
		t.Fatalf("merged mean latency %v, want 200", got)
	}
	if a.DirtyWords.Total() != 2 {
		t.Fatalf("merged histogram total %d", a.DirtyWords.Total())
	}
	if a.FirstArrival != 50 || a.LastDone != 900 {
		t.Fatalf("window [%v,%v]", a.FirstArrival, a.LastDone)
	}
}

func TestWriteThroughput(t *testing.T) {
	m := NewMetrics()
	m.Writes.Add(100)
	m.NoteArrival(0)
	m.NoteDone(sim.Microsecond * 10)
	if got := m.WriteThroughput(); got != 10 {
		t.Fatalf("throughput %v writes/us, want 10", got)
	}
}

// TestAddrMapChannelMatchesDecode: the channel shortcut must agree with
// the full decode for every address, in capacity or not, on every
// power-of-two channel count.
func TestAddrMapChannelMatchesDecode(t *testing.T) {
	for _, ch := range []int{1, 2, 4, 8} {
		g := defaultGeometry()
		g.Channels = ch
		a, err := NewAddrMap(g)
		if err != nil {
			t.Fatal(err)
		}
		if err := quick.Check(func(addr uint64) bool {
			return a.Channel(addr) == a.Decode(addr).Channel
		}, &quick.Config{MaxCount: 5000}); err != nil {
			t.Errorf("%d channels: %v", ch, err)
		}
	}
}

// TestAddrMapCheck pins the capacity boundary: the last line decodes
// 1:1, the first byte past it and far-out addresses (which Decode
// would wrap onto in-capacity lines) are a *RangeError.
func TestAddrMapCheck(t *testing.T) {
	a, err := NewAddrMap(defaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	const capacity = 8 << 30
	cases := []struct {
		addr uint64
		ok   bool
	}{
		{0, true},
		{capacity - 64, true},
		{capacity - 1, true},
		{capacity, false},
		{1<<64 - 64, false},
		{1<<63 + 128, false},
	}
	for _, c := range cases {
		err := a.Check(c.addr)
		if c.ok {
			if err != nil {
				t.Errorf("%#x: %v", c.addr, err)
			}
			continue
		}
		var re *RangeError
		if !errors.As(err, &re) || re.Addr != c.addr || re.Capacity != capacity {
			t.Errorf("%#x: want *RangeError{%#x, %d}, got %v", c.addr, c.addr, capacity, err)
		}
	}
}
