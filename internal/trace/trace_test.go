package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/core"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

func sampleRecords(n int) []Record {
	rng := sim.NewRNG(1)
	out := make([]Record, n)
	for i := range out {
		kind := mem.Read
		var mask uint8
		if rng.Bool(0.5) {
			kind = mem.Write
			mask = uint8(rng.Uint64())
		}
		out[i] = Record{
			At:   sim.NS(20).Times(i),
			Addr: uint64(rng.Intn(1<<20)) * 64,
			Kind: kind,
			Mask: mask,
			Core: int8(rng.Intn(8)),
		}
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	recs := sampleRecords(500)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 500 {
		t.Fatalf("count %d", w.Count())
	}
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("%d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestBadMagicRejected(t *testing.T) {
	buf := bytes.NewBufferString("this is not a trace file at all")
	if _, err := NewReader(buf).Read(); err == nil {
		t.Fatal("bad magic should error")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write(sampleRecords(1)[0])
	w.Flush()
	data := buf.Bytes()[:buf.Len()-5]
	r := NewReader(bytes.NewReader(data))
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("truncated record should be a hard error, got %v", err)
	}
}

// rawRecord encodes one 24-byte record with arbitrary field values,
// including ones Writer never produces.
func rawRecord(at uint64, addr uint64, kind, mask, core byte) []byte {
	var b [recordBytes]byte
	binary.LittleEndian.PutUint64(b[0:], at)
	binary.LittleEndian.PutUint64(b[8:], addr)
	b[16], b[17], b[18] = kind, mask, core
	return b[:]
}

// TestReadRejectsUnreplayableRecords pins the reader's validation: a
// timestamp with bit 63 set (negative sim.Time, which Replay would
// schedule before now) and a request kind other than read/write (which
// the controller would queue but never complete) are each reported as
// a typed error naming the record's index.
func TestReadRejectsUnreplayableRecords(t *testing.T) {
	good := rawRecord(100, 64, byte(mem.Write), 0x3, 1)
	cases := []struct {
		name string
		rec  []byte
	}{
		{"negative timestamp", rawRecord(1<<64-1000, 64, byte(mem.Read), 0, 0)},
		{"unknown kind", rawRecord(100, 64, 7, 0, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := append(append(append([]byte{}, magic[:]...), good...), c.rec...)
			r := NewReader(bytes.NewReader(data))
			if _, err := r.Read(); err != nil {
				t.Fatalf("record 0 is valid: %v", err)
			}
			_, err := r.Read()
			var de *decodeError
			if !errors.As(err, &de) {
				t.Fatalf("want *decodeError, got %T %v", err, err)
			}
			if de.record != 1 {
				t.Errorf("error names record %d, want 1 (%v)", de.record, err)
			}
			if _, err := NewReader(bytes.NewReader(data)).ReadAll(); !errors.As(err, &de) {
				t.Errorf("ReadAll: want *decodeError, got %v", err)
			}
		})
	}
}

// TestCheckCapacityNamesRecord: an address beyond memory capacity,
// which Decode would alias onto another line, is reported with the
// record's index and the underlying *mem.RangeError.
func TestCheckCapacityNamesRecord(t *testing.T) {
	amap, err := mem.NewAddrMap(config.Default().Memory.Geometry())
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{1<<64 - 64, 1<<63 + 128} {
		recs := []Record{{Addr: 64}, {Addr: 128, Kind: mem.Write}, {Addr: addr}}
		err := CheckCapacity(recs, amap)
		var de *decodeError
		var re *mem.RangeError
		if !errors.As(err, &de) || de.record != 2 || !errors.As(err, &re) || re.Addr != addr {
			t.Errorf("%#x: want record 2 out of range, got %v", addr, err)
		}
	}
	if err := CheckCapacity([]Record{{Addr: 64}}, amap); err != nil {
		t.Errorf("in-capacity trace rejected: %v", err)
	}
}

func TestEmptyTraceReadsEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Flush() // header only
	if _, err := NewReader(&buf).Read(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestAttachRecordsSubmissions(t *testing.T) {
	cfg := config.Default()
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	detach := Attach(m, w)
	m.Submit(&mem.Request{Kind: mem.Write, Addr: 0x40, Mask: 3})
	m.Submit(&mem.Request{Kind: mem.Read, Addr: 0x80})
	eng.Run()
	detach()
	m.Submit(&mem.Request{Kind: mem.Read, Addr: 0xc0})
	eng.Run()
	w.Flush()
	got, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recorded %d, want 2 (detach must stop recording)", len(got))
	}
	if got[0].Kind != mem.Write || got[0].Mask != 3 || got[1].Kind != mem.Read {
		t.Fatalf("records wrong: %+v", got)
	}
}

func TestReplayCompletesAll(t *testing.T) {
	recs := sampleRecords(300)
	cfg := config.Default().WithVariant(config.RWoWRDE)
	eng := sim.NewEngine()
	m, err := core.NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := Replay(eng, m, recs)
	eng.Run()
	if st.Submitted != 300 || st.Completed != 300 {
		t.Fatalf("submitted=%d completed=%d, want 300/300", st.Submitted, st.Completed)
	}
}

func TestReplayIsVariantComparable(t *testing.T) {
	// The whole point of the trace tool: identical request streams,
	// different controllers — PCMap should finish the writes sooner.
	recs := make([]Record, 0, 1200)
	rng := sim.NewRNG(9)
	for i := 0; i < 1200; i++ {
		kind := mem.Write
		mask := uint8(1) << uint(rng.Intn(8))
		if i%4 == 0 {
			kind = mem.Read
			mask = 0
		}
		recs = append(recs, Record{
			At:   sim.NS(14).Times(i),
			Addr: uint64(rng.Intn(1<<16)) * 64,
			Kind: kind,
			Mask: mask,
		})
	}
	measure := func(v config.Variant) (readNS, writeNS float64) {
		cfg := config.Default().WithVariant(v)
		eng := sim.NewEngine()
		m, err := core.NewMemory(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		Replay(eng, m, recs)
		eng.Run()
		met := m.Metrics()
		return met.ReadLatency.MeanNS(), met.WriteLatency.MeanNS()
	}
	baseR, baseW := measure(config.Baseline)
	pcmR, pcmW := measure(config.RWoWRDE)
	// On a saturated stream PCMap's win is read service during writes:
	// reads must improve dramatically without writes degrading much.
	if pcmR >= baseR/2 {
		t.Fatalf("PCMap read latency %.1fns should be far below baseline %.1fns", pcmR, baseR)
	}
	if pcmW > baseW*1.25 {
		t.Fatalf("PCMap write latency %.1fns degraded too far from baseline %.1fns", pcmW, baseW)
	}
}
