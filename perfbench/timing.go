package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// cpuSeconds returns the CPU time the process has used, user plus
// system, over all its threads. Unlike the wall clock it does not
// advance while a virtual CPU is descheduled by the hypervisor (steal
// time), and it counts the garbage collector's work on other threads.
func cpuSeconds() float64 { return cpuClock(clockProcessCPUTime) }

// threadCPUSeconds returns the CPU time of the calling OS thread.
func threadCPUSeconds() float64 { return cpuClock(clockThreadCPUTime) }

// Linux CPU-time clock IDs, which package syscall does not name. Unlike
// getrusage, whose times may advance in scheduler ticks, they count
// nanoseconds.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

func cpuClock(id uintptr) float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno) // a valid clock with a valid pointer cannot fail
	}
	return float64(ts.Nano()) / 1e9
}

// minRepeats is the fewest times a run repeats its unit of work.
const minRepeats = 2

// refSeconds is the thread CPU time one refKernel call takes on the
// reference host (2-vCPU KVM guest on an Intel Xeon, Go 1.24) when it
// is quiet. Host costs are reported in reference seconds: process CPU
// seconds divided by the run's host factor, its mean refKernel time
// over refSeconds.
const refSeconds = 0.021

// hostSpeed samples how fast the host runs a fixed reference workload
// during a run. On a shared host the same simulation costs 10-30% more
// CPU time while other tenants load the machine (shared core and cache
// contention), for minutes at a time. A reference sample after every
// item slows down with it, so dividing by the run's mean sample cancels
// most of that drift while the simulator's own cost stays in the
// numerator.
type hostSpeed struct {
	cpu  []float64     // thread CPU seconds of each sample
	wall time.Duration // wall-clock time spent sampling
}

// sample runs refKernel once and returns its thread CPU seconds.
func (h *hostSpeed) sample() float64 {
	w0 := time.Now()
	runtime.LockOSThread()
	t0 := threadCPUSeconds()
	refKernel()
	d := threadCPUSeconds() - t0
	runtime.UnlockOSThread()
	h.cpu = append(h.cpu, d)
	h.wall += time.Since(w0)
	return d
}

// factor is the run's mean sample over refSeconds: above 1 on a host
// slower than the reference one.
func (h *hostSpeed) factor() float64 { return mean(h.cpu) / refSeconds }

// Reference kernel state, allocated once so that a sample allocates
// nothing: it never triggers or assists the garbage collector, and its
// cost does not depend on the simulator's heap. The large arrays are
// mapped outside the Go heap, so they do not raise the heap goal and
// change how often the simulator's garbage is collected.
const (
	refSteps   = 80_000
	refTableSz = 1 << 20 // 8 MiB of counters, past a core's private cache
)

type refEvent struct {
	at uint64
	id uint32
}

var (
	refTable = offHeap[uint64](refTableSz)
	refLat   = offHeap[float64](refSteps)
	refHeap  = make([]refEvent, 512)
	refSink  uint64
)

// offHeap returns n zeroed Ts in anonymous memory the garbage collector
// does not manage. T must hold no pointers.
func offHeap[T any](n int) []T {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)
}

// refKernel is a small discrete-event loop shaped like the simulator's
// hot paths: a binary-heap event queue, random updates to a table
// larger than a core's private cache, and a closing sort of per-event
// samples like the IRLP finalize. Its work is fixed.
func refKernel() {
	h := refHeap
	for i := range h {
		h[i] = refEvent{at: uint64(i), id: uint32(i)}
	}
	x := uint64(88172645463325252)
	for i := range refLat {
		e := h[0]
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		refTable[x&(refTableSz-1)] += e.at
		e.at += x%97 + 1
		h[0] = e
		for j := 0; ; {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if r := c + 1; r < len(h) && h[r].at < h[c].at {
				c = r
			}
			if h[j].at <= h[c].at {
				break
			}
			h[j], h[c] = h[c], h[j]
			j = c
		}
		refLat[i] = float64(x % 100_000)
	}
	sort.Float64s(refLat)
	refSink += uint64(refLat[len(refLat)/2]) + refTable[x&1023]
}

// timing times a timed section made of repeats of one unit of identical
// work, each a fixed list of items (simulations or variant replays), in
// process CPU seconds, with a host-speed sample after every item. The
// number of repeats follows a wall-clock budget: a slow host makes
// fewer repeats of the same unit, not a shorter one.
type timing struct {
	host  *hostSpeed
	items [][]float64 // [item][unit] CPU seconds
	units []float64   // per unit: CPU seconds, host samples excluded

	unitStart, unitSampled float64

	budget    time.Duration // wall-clock length of the timed section
	start     time.Time     // start of the first unit
	wallStart time.Time     // start of the current unit
	lastWall  time.Duration // wall-clock length of the last unit
}

func newTiming(items int, budget time.Duration, host *hostSpeed) *timing {
	return &timing{host: host, items: make([][]float64, items), budget: budget}
}

// next reports whether to run unit u: always the first minRepeats, then
// while another unit is expected to end within the budget.
func (t *timing) next(u int) bool {
	return u < minRepeats || time.Since(t.start)+t.lastWall <= t.budget
}

// repeats is how many units have run.
func (t *timing) repeats() int { return len(t.units) }

func (t *timing) startUnit() {
	t.wallStart = time.Now()
	if t.start.IsZero() {
		t.start = t.wallStart
	}
	t.unitStart, t.unitSampled = cpuSeconds(), 0
}

// item records one item's CPU seconds in the current unit, then takes a
// host-speed sample, which the unit's time leaves out.
func (t *timing) item(i int, secs float64) {
	t.items[i] = append(t.items[i], secs)
	c0 := cpuSeconds()
	t.host.sample()
	t.unitSampled += cpuSeconds() - c0
}

func (t *timing) endUnit() {
	t.units = append(t.units, cpuSeconds()-t.unitStart-t.unitSampled)
	t.lastWall = time.Since(t.wallStart)
}

// unitSeconds is the mean CPU seconds of one unit: the whole timed
// section's work over the repeats.
func (t *timing) unitSeconds() float64 { return mean(t.units) }

// itemMedians returns each item's median CPU seconds over the repeats.
func (t *timing) itemMedians() []float64 {
	out := make([]float64, 0, len(t.items))
	for _, xs := range t.items {
		if len(xs) > 0 {
			out = append(out, quantile(xs, 0.5))
		}
	}
	return out
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
