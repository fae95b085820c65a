package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"pinbcast"
)

// span is one traced interval. Spans of one retrieval or admission share
// an ID; Parent names the enclosing span of the same ID. A per-slot span
// merges N sequential intervals of one kind (every Source.Next of one
// retrieval, say) into their summed duration, which is what self-time
// accounting needs without keeping a record per slot.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	N      int    `json:"n,omitempty"`
}

// selfTimes returns each span's duration minus the durations of its
// children: the time the layer itself spent, with the calls it made into
// the layers below taken out.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.Dur
	}
	for _, c := range spans {
		if c.Parent == "" {
			continue
		}
		for i, p := range spans {
			if p.Name == c.Parent {
				self[i] -= c.Dur
				break
			}
		}
	}
	return self
}

// tracer keeps the spans of one client goroutine in memory, up to a
// limit, and turns each traced operation's spans into per-layer self
// times as it ends. Spans are written out when the run ends.
type tracer struct {
	t0    time.Time
	limit int
	kept  []span
	cur   []span
	// self holds per-operation self times in µs, keyed by span name.
	self map[string][]float64
}

func newTracer(t0 time.Time, limit int) *tracer {
	return &tracer{t0: t0, limit: limit, self: map[string][]float64{}}
}

func (tr *tracer) add(id uint64, name, parent string, start time.Time, dur time.Duration, n int) {
	tr.cur = append(tr.cur, span{ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(tr.t0)), Dur: int64(dur), N: n})
}

// end closes the current operation: self times are recorded and the
// spans kept while under the limit.
func (tr *tracer) end() {
	for i, st := range selfTimes(tr.cur) {
		tr.self[tr.cur[i].Name] = append(tr.self[tr.cur[i].Name], float64(st)/1e3)
	}
	if len(tr.kept) < tr.limit {
		tr.kept = append(tr.kept, tr.cur...)
	}
	tr.cur = tr.cur[:0]
}

func (tr *tracer) merge(o *tracer) {
	tr.kept = append(tr.kept, o.kept...)
	for k, v := range o.self {
		tr.self[k] = append(tr.self[k], v...)
	}
}

// writeSpans writes the kept spans as JSON lines.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.kept {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probeSource wraps a client's Source. It always notes when the first
// slot arrives (the end of set-up), on the wall clock and the process
// CPU clock; when traced it also times every
// Next call and the consumer's work between calls. One goroutine calls
// Next at a time; the owner toggles traced and reads the accumulators
// only while no Next is in flight.
type probeSource struct {
	src      pinbcast.Source
	traced   bool
	first    time.Time
	firstCPU time.Duration

	// Per-retrieval accumulators, reset by beginRun.
	firstNext time.Time
	lastEnd   time.Time
	nextSum   time.Duration
	nextN     int
	selfSum   time.Duration
	selfN     int

	nextH hist // Source.Next duration
	selfH hist // consumer time between Next calls
}

func (p *probeSource) Next() (pinbcast.Slot, error) {
	if !p.traced {
		s, err := p.src.Next()
		if err == nil && p.first.IsZero() {
			p.noteFirst(time.Now())
		}
		return s, err
	}
	start := time.Now()
	if p.lastEnd.IsZero() {
		p.firstNext = start
	} else {
		gap := start.Sub(p.lastEnd)
		p.selfSum += gap
		p.selfN++
		p.selfH.add(gap)
	}
	s, err := p.src.Next()
	end := time.Now()
	d := end.Sub(start)
	p.nextSum += d
	p.nextN++
	p.nextH.add(d)
	p.lastEnd = end
	if err == nil && p.first.IsZero() {
		p.noteFirst(end)
	}
	return s, err
}

func (p *probeSource) noteFirst(at time.Time) {
	p.first, p.firstCPU = at, processCPU()
}

func (p *probeSource) Close() error { return p.src.Close() }

func (p *probeSource) beginRun() {
	p.firstNext, p.lastEnd = time.Time{}, time.Time{}
	p.nextSum, p.nextN, p.selfSum, p.selfN = 0, 0, 0, 0
}

// addRunSpans records the run's per-slot spans under parent "run":
// source.next (time in Next), client.slot (the consumer's work between
// Next calls) and client.complete (from the last slot to the run's end:
// decode, reconstruction and hand-back of the finished file).
func (p *probeSource) addRunSpans(tr *tracer, id uint64, runEnd time.Time) {
	if p.nextN == 0 {
		return
	}
	tr.add(id, "source.next", "run", p.firstNext, p.nextSum, p.nextN)
	tr.add(id, "client.slot", "run", p.firstNext, p.selfSum, p.selfN)
	tr.add(id, "client.complete", "run", p.lastEnd, runEnd.Sub(p.lastEnd), 1)
}

// probeSink wraps the station's Sink: traced, it times each Send and the
// producer's gap between Sends (the serve loop making the next slot).
type probeSink struct {
	sink    pinbcast.Sink
	traced  atomic.Bool
	lastEnd time.Time
	sendH   hist
	gapH    hist
}

func (p *probeSink) Send(s pinbcast.Slot) error {
	if !p.traced.Load() {
		return p.sink.Send(s)
	}
	start := time.Now()
	if !p.lastEnd.IsZero() {
		p.gapH.add(start.Sub(p.lastEnd))
	}
	err := p.sink.Send(s)
	p.lastEnd = time.Now()
	p.sendH.add(p.lastEnd.Sub(start))
	return err
}

func (p *probeSink) Close() error { return p.sink.Close() }

func (p *probeSink) setTraced(on bool) {
	if on {
		p.lastEnd = time.Time{}
	}
	p.traced.Store(on)
}
