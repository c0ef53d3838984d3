package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a simulator layer. Times are seconds
// since the recorder was created.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	Dur    float64 `json:"dur_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 at top level
	Timed  bool    `json:"timed"`  // inside the timed section (else set-up)
}

// spans keeps every span in memory until write. A nil *spans records
// nothing, so untraced runs pay one nil check per call site.
type spans struct {
	origin time.Time
	list   []span
	open   []int // stack of unfinished span indexes
	timed  bool
}

func newSpans() *spans { return &spans{origin: time.Now()} }

// begin opens a span and returns its handle for end.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	s.list = append(s.list, span{Name: name, Start: time.Since(s.origin).Seconds(),
		Parent: parent, Timed: s.timed})
	h := len(s.list) - 1
	s.open = append(s.open, h)
	return h
}

// end closes the span h, which must be the innermost open one.
func (s *spans) end(h int) {
	if s == nil {
		return
	}
	sp := &s.list[h]
	sp.Dur = time.Since(s.origin).Seconds() - sp.Start
	s.open = s.open[:len(s.open)-1]
}

// reset drops all spans (a repeated set-up keeps only its last round).
func (s *spans) reset() {
	if s != nil {
		s.list, s.open = s.list[:0], s.open[:0]
	}
}

// markTimed starts the timed section: later spans count toward it.
func (s *spans) markTimed() {
	if s != nil {
		s.timed = true
	}
}

// spanNames are every span the workloads record; each is reported, as
// 0 where a workload never enters that layer.
var spanNames = []string{
	"system.new_s", "system.run_s", "system.release_s",
	"trace.gen_s", "trace.decode_s", "trace.schedule_s",
	"core.new_s", "sim.engine_run_s", "core.finalize_s",
}

// summarize adds each span name's seconds to out: per unit of work for
// spans in the timed section (which ran units times), per set-up for
// set-up spans. It adds exp.overhead_s, the timed section's seconds per
// unit not covered by a top-level span.
func (s *spans) summarize(timed float64, units int, out map[string]float64) {
	for _, n := range spanNames {
		out[n] = 0
	}
	covered := 0.0
	for _, sp := range s.list {
		d := sp.Dur
		if sp.Timed {
			d /= float64(units)
			if sp.Parent < 0 {
				covered += d
			}
		}
		out[sp.Name] += d
	}
	out["exp.overhead_s"] = timed/float64(units) - covered
}

func (s *spans) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{s.list})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
