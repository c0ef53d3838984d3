package core

import (
	"testing"

	"pcmap/internal/config"
	"pcmap/internal/mem"
	"pcmap/internal/sim"
)

func pausingMemory(t *testing.T, pausing bool) (*sim.Engine, *Memory, *driver) {
	t.Helper()
	cfg := config.Default() // baseline variant
	cfg.Memory.Channels = 1
	cfg.Memory.CapacityBytes = 1 << 30
	cfg.Memory.WritePausing = pausing
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m, &driver{eng: eng, m: m}
}

func pausingTraffic(eng *sim.Engine, d *driver, rng *sim.RNG) {
	n := 0
	var gen func()
	gen = func() {
		if n >= 900 {
			return
		}
		n++
		addr := lineAddr(uint64(rng.Intn(2048)))
		if n%4 == 0 {
			d.submit(&mem.Request{Kind: mem.Read, Addr: addr})
		} else {
			d.submit(&mem.Request{Kind: mem.Write, Addr: addr, Mask: 0x0f})
		}
		eng.Schedule(sim.NS(16), gen)
	}
	eng.Schedule(0, gen)
	eng.Run()
}

func TestWritePausingCutsReadLatency(t *testing.T) {
	engA, mA, dA := pausingMemory(t, false)
	pausingTraffic(engA, dA, sim.NewRNG(4))
	plain := mA.Metrics().ReadLatency.MeanNS()
	if dA.completed != dA.issued {
		t.Fatalf("plain: %d/%d completed", dA.completed, dA.issued)
	}

	engB, mB, dB := pausingMemory(t, true)
	pausingTraffic(engB, dB, sim.NewRNG(4))
	paused := mB.Metrics().ReadLatency.MeanNS()
	if dB.completed != dB.issued {
		t.Fatalf("paused: %d/%d completed", dB.completed, dB.issued)
	}
	if mB.Metrics().WritePauses.Value() == 0 {
		t.Fatal("no pauses recorded under read pressure")
	}
	if paused >= plain {
		t.Fatalf("write pausing should cut read latency: %.1fns vs %.1fns", paused, plain)
	}
}

func TestWritePausingPreservesWriteCompletion(t *testing.T) {
	eng, m, d := pausingMemory(t, true)
	var data [64]byte
	for i := range data {
		data[i] = 0x5a
	}
	d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(3), Mask: 0xff, Data: &data})
	// Interleave reads so the write actually pauses.
	for i := 0; i < 4; i++ {
		d.submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(uint64(100 + i))})
	}
	eng.Run()
	var rd *mem.Request
	m.Submit(&mem.Request{Kind: mem.Read, Addr: lineAddr(3), OnDone: func(r *mem.Request) { rd = r }})
	eng.Run()
	if rd == nil || rd.ReadData != data {
		t.Fatal("paused write lost content")
	}
}

func TestPausingOffByDefault(t *testing.T) {
	eng, m, d := pausingMemory(t, false)
	pausingTraffic(eng, d, sim.NewRNG(6))
	if m.Metrics().WritePauses.Value() != 0 {
		t.Fatal("pauses recorded with the feature disabled")
	}
}

func TestPausingIgnoredByPCMapVariants(t *testing.T) {
	cfg := config.Default().WithVariant(config.RWoWRDE)
	cfg.Memory.Channels = 1
	cfg.Memory.WritePausing = true
	eng := sim.NewEngine()
	m, err := NewMemory(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{eng: eng, m: m}
	pausingTraffic(eng, d, sim.NewRNG(8))
	if d.completed != d.issued {
		t.Fatalf("%d/%d completed", d.completed, d.issued)
	}
	if m.Metrics().WritePauses.Value() != 0 {
		t.Fatal("fine-grained variants must not use the pausing path")
	}
}

// TestPausingIRLPCountsDirtyChips: each segment of a paused write
// serves data on one chip per dirty word, so a lone write with three
// dirty words peaks at three busy chips.
func TestPausingIRLPCountsDirtyChips(t *testing.T) {
	eng, m, d := pausingMemory(t, true)
	var data [64]byte
	for i := range data {
		data[i] = 0xa5
	}
	d.submit(&mem.Request{Kind: mem.Write, Addr: lineAddr(5), Mask: 0x0b, Data: &data})
	eng.Run()
	if _, peak := m.IRLP(); peak != 3 {
		t.Fatalf("IRLP peak %d during a three-word paused write, want 3", peak)
	}
}
