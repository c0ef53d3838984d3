package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"pcmap/internal/mem"
)

// FuzzTraceReader feeds arbitrary bytes to the reader: every Read must
// yield a replayable record, io.EOF, or a *decodeError, and never panic.
func FuzzTraceReader(f *testing.F) {
	var valid bytes.Buffer
	w := NewWriter(&valid)
	for _, r := range sampleRecords(3) {
		w.Write(r)
	}
	w.Flush()
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:valid.Len()-5])
	f.Add(magic[:])
	f.Add([]byte("not a trace"))
	f.Add(append(append([]byte{}, magic[:]...), rawRecord(1<<64-1000, 64, 0, 0, 0)...))
	f.Add(append(append([]byte{}, magic[:]...), rawRecord(100, 64, 7, 0, 0)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data))
		// Each call consumes a header or a record, so the stream ends
		// within this many reads.
		for i := 0; i <= len(data)/recordBytes+1; i++ {
			rec, err := r.Read()
			if err == io.EOF {
				return
			}
			var de *decodeError
			if errors.As(err, &de) {
				if de.record < 0 || errors.Is(err, io.ErrUnexpectedEOF) {
					return // header or truncation: the stream is over
				}
				continue
			}
			if err != nil {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			if rec.At < 0 || (rec.Kind != mem.Read && rec.Kind != mem.Write) {
				t.Fatalf("reader accepted unreplayable record %+v", rec)
			}
		}
		t.Fatalf("reader did not reach the end of %d bytes", len(data))
	})
}
