// Package trace records and replays PCM-level memory request streams.
// A trace captures what the cache hierarchy emitted toward main memory
// — reads and masked write-backs with timestamps — so controller
// variants can be compared on identical request sequences (open-loop),
// complementing the closed-loop full-system runs.
//
// The binary format is a 16-byte magic header followed by fixed
// 24-byte little-endian records.
package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"pcmap/internal/core"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

// Record is one traced request.
type Record struct {
	At   sim.Time // arrival time
	Addr uint64   // line-aligned physical address
	Kind mem.Kind
	Mask uint8 // essential-word mask (writes)
	Core int8
}

var magic = [16]byte{'P', 'C', 'M', 'A', 'P', '-', 'T', 'R', 'A', 'C', 'E', '-', 'v', '1', 0, 0}

const recordBytes = 24

// HasHeader reports whether b begins with the request-trace header.
func HasHeader(b []byte) bool { return bytes.HasPrefix(b, magic[:]) }

// Writer streams records to an io.Writer.
type Writer struct {
	w     *bufio.Writer
	n     uint64
	wrote bool
}

// NewWriter returns a trace writer (header written lazily).
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Write appends one record.
func (t *Writer) Write(r Record) error {
	if !t.wrote {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.wrote = true
	}
	var buf [recordBytes]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(r.At.Ticks()))
	binary.LittleEndian.PutUint64(buf[8:], r.Addr)
	buf[16] = byte(r.Kind)
	buf[17] = r.Mask
	buf[18] = byte(r.Core)
	if _, err := t.w.Write(buf[:]); err != nil {
		return err
	}
	t.n++
	return nil
}

// Count returns how many records were written.
func (t *Writer) Count() uint64 { return t.n }

// Flush flushes buffered records; call before closing the underlying
// writer.
func (t *Writer) Flush() error {
	if !t.wrote {
		if _, err := t.w.Write(magic[:]); err != nil {
			return err
		}
		t.wrote = true
	}
	return t.w.Flush()
}

// decodeError is the typed error Reader.Read returns for input that is
// not a replayable trace: a short or foreign header, a truncated record,
// or a record whose fields Replay cannot schedule. record is the
// offending record's 0-based index, or -1 for the header; err is the
// underlying read error, if any.
type decodeError struct {
	record int64
	reason string
	err    error
}

func (e *decodeError) Error() string {
	msg := "trace: " + e.reason
	if e.record >= 0 {
		msg = fmt.Sprintf("trace: record %d: %s", e.record, e.reason)
	}
	if e.err != nil {
		msg += ": " + e.err.Error()
	}
	return msg
}

func (e *decodeError) Unwrap() error { return e.err }

// Reader streams records from an io.Reader.
type Reader struct {
	r      *bufio.Reader
	header bool
	n      int64 // records read so far
}

// NewReader returns a trace reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Read returns the next record; io.EOF at the end. Every other failure
// is a *decodeError: a record with a negative timestamp or a request
// kind other than read or write is rejected rather than handed to
// Replay, which could neither schedule nor complete it.
func (t *Reader) Read() (Record, error) {
	if !t.header {
		var h [16]byte
		if _, err := io.ReadFull(t.r, h[:]); err != nil {
			return Record{}, &decodeError{record: -1, reason: "reading header", err: err}
		}
		if h != magic {
			return Record{}, &decodeError{record: -1, reason: "bad magic (not a PCMap trace)"}
		}
		t.header = true
	}
	var buf [recordBytes]byte
	if _, err := io.ReadFull(t.r, buf[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, &decodeError{record: t.n, reason: "truncated record", err: err}
	}
	idx := t.n
	t.n++
	rec := Record{
		At:   sim.Time(binary.LittleEndian.Uint64(buf[0:])),
		Addr: binary.LittleEndian.Uint64(buf[8:]),
		Kind: mem.Kind(buf[16]),
		Mask: buf[17],
		Core: int8(buf[18]),
	}
	switch {
	case rec.At < 0:
		return Record{}, &decodeError{record: idx, reason: fmt.Sprintf("negative timestamp %d ticks", rec.At.Ticks())}
	case rec.Kind != mem.Read && rec.Kind != mem.Write:
		return Record{}, &decodeError{record: idx, reason: fmt.Sprintf("unknown request kind %d", int(rec.Kind))}
	}
	return rec, nil
}

// CheckCapacity returns an error naming the first record whose address
// lies beyond amap's capacity, where Decode would alias it onto
// another line. The error is a *decodeError wrapping the
// *mem.RangeError.
func CheckCapacity(records []Record, amap *mem.AddrMap) error {
	for i := range records {
		if err := amap.Check(records[i].Addr); err != nil {
			return &decodeError{record: int64(i), reason: "address out of range", err: err}
		}
	}
	return nil
}

// ReadAll drains the reader.
func (t *Reader) ReadAll() ([]Record, error) {
	var out []Record
	for {
		r, err := t.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
}

// Attach records every request submitted to memory into w. It returns
// a detach function.
func Attach(memory *core.Memory, w *Writer) (detach func()) {
	prev := memory.OnSubmit
	memory.OnSubmit = func(r *mem.Request) {
		_ = w.Write(Record{At: memory.Eng.Now(), Addr: r.Addr, Kind: r.Kind, Mask: r.Mask, Core: int8(r.Core)})
		if prev != nil {
			prev(r)
		}
	}
	return func() { memory.OnSubmit = prev }
}

// ReplayStats summarizes a replay.
type ReplayStats struct {
	Submitted uint64
	Completed uint64
	Deferred  uint64 // submissions delayed by a full queue
}

// Replay feeds records into memory at their recorded timestamps
// (open-loop); full queues defer a record until space frees, shifting
// it later in time. Run the engine to completion afterwards; stats are
// final once the engine drains.
func Replay(eng *sim.Engine, memory *core.Memory, records []Record) *ReplayStats {
	st := &ReplayStats{}
	base := eng.Now()
	for i := range records {
		rec := records[i]
		req := &mem.Request{
			Kind: rec.Kind,
			Addr: rec.Addr,
			Mask: rec.Mask,
			Core: int(rec.Core),
			OnDone: func(*mem.Request) {
				st.Completed++
			},
		}
		var submit func()
		submit = func() {
			if memory.Submit(req) {
				st.Submitted++
				return
			}
			st.Deferred++
			memory.OnSpace(req.Kind, req.Addr, submit)
		}
		eng.At(base+rec.At, submit)
	}
	return st
}
