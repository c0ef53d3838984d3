package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pcmap/internal/mem"
	"pcmap/internal/trace"
)

// TestGenInfoReplayRoundTrip exercises the tool end to end: generate a
// trace from a real workload run, inspect it, and replay it against a
// PCMap variant.
func TestGenInfoReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trc")

	if err := cmdGen([]string{"-workload", "MP4", "-instr", "20000", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	st, err := os.Stat(out)
	if err != nil || st.Size() <= 16 {
		t.Fatalf("trace not written: %v (size %d)", err, st.Size())
	}
	if err := cmdInfo([]string{"-in", out}); err != nil {
		t.Fatalf("info: %v", err)
	}
	if err := cmdReplay([]string{"-in", out, "-variant", "RWoW-RDE"}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if err := cmdReplay([]string{"-in", out, "-variant", "Baseline"}); err != nil {
		t.Fatalf("replay baseline: %v", err)
	}
}

func TestReplayRejectsUnknownVariant(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trc")
	if err := cmdGen([]string{"-workload", "dedup", "-instr", "5000", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdReplay([]string{"-in", out, "-variant", "NoSuch"}); err == nil {
		t.Fatal("unknown variant must error")
	}
}

func TestInfoRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.trc")
	os.WriteFile(bad, []byte("not a trace"), 0o644)
	if err := cmdInfo([]string{"-in", bad}); err == nil {
		t.Fatal("garbage input must error")
	}
}

// TestRejectsOutOfCapacityRecords: replay and validate must refuse a
// trace whose record addresses lie beyond memory capacity (Decode would
// silently alias them onto other lines), naming the record.
func TestRejectsOutOfCapacityRecords(t *testing.T) {
	for _, addr := range []uint64{1<<64 - 64, 1<<63 + 128} {
		t.Run(fmt.Sprintf("%#x", addr), func(t *testing.T) {
			var buf bytes.Buffer
			w := trace.NewWriter(&buf)
			w.Write(trace.Record{At: 10, Addr: 64, Kind: mem.Read})
			w.Write(trace.Record{At: 20, Addr: addr, Kind: mem.Read})
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			in := filepath.Join(t.TempDir(), "far.trc")
			if err := os.WriteFile(in, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			for name, run := range map[string]func([]string) error{"replay": cmdReplay, "validate": cmdValidate} {
				err := run([]string{"-in", in})
				var re *mem.RangeError
				if !errors.As(err, &re) || !strings.Contains(err.Error(), "record 1") {
					t.Errorf("%s: want an out-of-range error naming record 1, got %v", name, err)
				}
			}
		})
	}
}

// TestValidateAcceptsRequestTrace: validate recognizes a generated
// request trace by its header and checks it.
func TestValidateAcceptsRequestTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "t.trc")
	if err := cmdGen([]string{"-workload", "dedup", "-instr", "5000", "-out", out}); err != nil {
		t.Fatalf("gen: %v", err)
	}
	if err := cmdValidate([]string{"-in", out}); err != nil {
		t.Fatalf("validate: %v", err)
	}
}
