package main

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast"
)

// config is one benchmark run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload for the self-test.
	tiny bool
	// corrupt hands the program contents that differ from the reference
	// the benchmark verifies against (self-test: the byte check fires).
	corrupt bool
	// overFault replaces the fault budget with one far beyond rᵢ
	// (self-test: the deadline check fires).
	overFault bool
	// spanFile receives the traced run's spans ("" = not written).
	spanFile string
}

// setups is how many times a run builds its workload from scratch to
// time set-up; the median is reported and the last build is measured.
// Single set-ups vary with the collector and the host, so the median
// needs many of them.
func (c config) setups() int {
	if c.tiny {
		return 2
	}
	return 51
}

// probeReps is how many Admit/Evict (and AdmitTxn/ReleaseTxn) pairs a
// control-plane probe makes on a small catalog.
func (c config) probeReps() int {
	if c.tiny {
		return 3
	}
	return 500
}

// layerReps is how many times the layer and IDA probes repeat.
func (c config) layerReps() int {
	if c.tiny {
		return 3
	}
	return 15
}

// setupTime is one set-up's duration, from New (or NewCluster) to the
// first slot a client sees, on the wall clock and as the CPU time the
// whole process used meanwhile.
type setupTime struct{ wall, cpu time.Duration }

// setupTimes collects a run's set-ups.
type setupTimes struct{ wallS, cpuS []float64 }

func (s *setupTimes) add(t setupTime) {
	s.wallS = append(s.wallS, t.wall.Seconds())
	s.cpuS = append(s.cpuS, t.cpu.Seconds())
}

// report gives setup_s as the median CPU time: the work set-up does,
// which a later change can move into it, without the waits a busy host
// adds. The median wall time goes to the details.
func (s *setupTimes) report(r *report) {
	r.values["setup_s"] = quantile(s.cpuS, 0.5)
	r.detail["setup_wall_s"] = quantile(s.wallS, 0.5)
}

// warmup is the unrecorded closed-loop time before measuring.
func (c config) warmup() time.Duration {
	return time.Duration(min(1, c.seconds/10) * float64(time.Second))
}

// tally counts one client's retrievals in one phase.
type tally struct {
	attempted, failed              int
	missed, incomplete, mismatched int
	blocksUsed                     int
	slots                          int
	retrievalUs, accessSlots       []float64
	start, end                     time.Time
}

// record checks one retrieval against the paper's guarantee: the file
// was rebuilt, within its deadline of B·Tᵢ slots, with exactly the
// bytes it was published with. The retrieval's wall time runs from
// the request at t0 to the verified bytes.
func (t *tally) record(res pinbcast.Result, want []byte, t0 time.Time) {
	t.attempted++
	ok := true
	switch {
	case !res.Completed:
		t.incomplete++
		ok = false
	case !bytes.Equal(res.Data, want):
		t.mismatched++
		ok = false
	case !res.DeadlineMet || res.Latency > res.Deadline:
		t.missed++
		ok = false
	}
	elapsed := time.Since(t0)
	if !ok {
		t.failed++
	}
	t.blocksUsed += res.BlocksUsed
	t.retrievalUs = append(t.retrievalUs, float64(elapsed)/1e3)
	t.accessSlots = append(t.accessSlots, float64(res.Latency))
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.missed += o.missed
	t.incomplete += o.incomplete
	t.mismatched += o.mismatched
	t.blocksUsed += o.blocksUsed
	t.slots += o.slots
	t.retrievalUs = append(t.retrievalUs, o.retrievalUs...)
	t.accessSlots = append(t.accessSlots, o.accessSlots...)
	if t.start.IsZero() || o.start.Before(t.start) {
		t.start = o.start
	}
	if o.end.After(t.end) {
		t.end = o.end
	}
}

// toggler is a probe that records only while tracing is on.
type toggler interface{ setTraced(bool) }

// client is a closed-loop retriever: it sends its next request only
// after the previous one has been verified.
type client interface {
	// loop retrieves until the deadline, finishing the retrievals in
	// flight when it passes.
	loop(ctx context.Context, until time.Time, t *tally, tr *tracer) error
	// idle consumes a slot with nothing requested, so a finished client
	// keeps pace while the others end their last retrieval.
	idle() error
	// slots returns the slots consumed so far.
	slots() int
	setTraced(bool)
}

// phaseResult is one measured phase across all clients.
type phaseResult struct {
	tally
	perClientSlotsPerSec []float64
	tracer               *tracer
	// cpu is the CPU time the whole process used during the phase.
	cpu time.Duration
}

// phase is one stretch of a run's closed-loop time.
type phase struct {
	d       time.Duration
	traced  bool
	control bool // the workload's control loop runs beside the clients
}

// runPhases runs every client's closed loop through the phases back to
// back, each on a goroutine of its own, and the control loop (if any) on
// the calling goroutine beside them. A retrieval counts in the phase it
// started in. Clients never pause at a phase boundary: under the
// station's backpressure, a consumer that stops reading can stall the
// stream for one still waiting on a slot. So a client that has finished
// keeps consuming until all have, and then stop closes the transport,
// which ends the wait of any client still blocked on a slot.
func runPhases(ctx context.Context, clients []client, phases []phase, t0 time.Time,
	control func(until time.Time) error, stop func(), probes []toggler) ([]*phaseResult, error) {
	ends := make([]time.Time, len(phases))
	// cpuAt[p] is the process CPU clock when phase p began.
	cpuAt := make([]time.Duration, len(phases)+1)
	cpuAt[0] = processCPU()
	at := time.Now()
	for p, ph := range phases {
		at = at.Add(ph.d)
		ends[p] = at
	}
	parties := int32(len(clients))
	if control != nil {
		parties++
	}
	var finished atomic.Int32
	tallies := make([][]tally, len(clients))
	tracers := make([]*tracer, len(clients))
	errs := make([]error, len(clients)+1)
	var wg sync.WaitGroup
	for i, c := range clients {
		tallies[i] = make([]tally, len(phases))
		tracers[i] = newTracer(t0, 4000)
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			for p, ph := range phases {
				c.setTraced(ph.traced)
				tl := &tallies[i][p]
				tl.start = time.Now()
				slots0 := c.slots()
				var tr *tracer
				if ph.traced {
					tr = tracers[i]
				}
				err := c.loop(ctx, ends[p], tl, tr)
				tl.end = time.Now()
				tl.slots = c.slots() - slots0
				if err != nil {
					errs[i] = fmt.Errorf("client %d, retrieval %d: %w", i, tl.attempted+1, err)
					break
				}
			}
			c.setTraced(false)
			finished.Add(1)
			for errs[i] == nil && finished.Load() < parties {
				if err := c.idle(); err != nil && finished.Load() < parties {
					errs[i] = fmt.Errorf("client %d, idling: %w", i, err)
				}
			}
		}(i, c)
	}
	for p, ph := range phases {
		for _, pr := range probes {
			pr.setTraced(ph.traced)
		}
		if control != nil && ph.control {
			if err := control(ends[p]); err != nil {
				errs[len(clients)] = err
				break
			}
		} else {
			time.Sleep(time.Until(ends[p]))
		}
		cpuAt[p+1] = processCPU()
	}
	for _, pr := range probes {
		pr.setTraced(false)
	}
	if control != nil {
		finished.Add(1)
	}
	for finished.Load() < parties {
		time.Sleep(100 * time.Microsecond)
	}
	stop()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := make([]*phaseResult, len(phases))
	for p := range phases {
		out[p] = &phaseResult{tracer: newTracer(t0, 4000), cpu: cpuAt[p+1] - cpuAt[p]}
		for i := range clients {
			tl := &tallies[i][p]
			out[p].merge(tl)
			if dur := tl.end.Sub(tl.start).Seconds(); dur > 0 {
				out[p].perClientSlotsPerSec = append(out[p].perClientSlotsPerSec, float64(tl.slots)/dur)
			}
			if phases[p].traced {
				out[p].tracer.merge(tracers[i])
			}
		}
	}
	return out, nil
}

// report is what one run prints.
type report struct {
	attempted, failed int
	gates             []string // violated run-validity gates
	env               map[string]any
	values            map[string]float64 // every metric measured, by name
	detail            map[string]any
	spans             *tracer // the traced run's spans; nil when untraced
}

func newReport(env map[string]any) *report {
	return &report{env: env, values: map[string]float64{}, detail: map[string]any{}}
}

func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gates = append(r.gates, fmt.Sprintf(format, args...))
	}
}

func (r *report) correct() bool { return r.failed == 0 && len(r.gates) == 0 }

// measured is a workload's measured time: after a warm-up, either one
// untraced phase or, for a traced run, an untraced half followed by a
// traced half (the difference between the two is the tracing overhead).
type measured struct {
	main   *phaseResult // untraced: the end-to-end figures
	traced *phaseResult // traced half; nil unless cfg.trace
}

// measure runs the clients through the warm-up and the measured phases;
// stop must make every client's blocked slot wait return.
func measure(ctx context.Context, cfg config, clients []client, t0 time.Time,
	control func(until time.Time) error, stop func(), probes ...toggler) (*measured, error) {
	d := time.Duration(cfg.seconds * float64(time.Second))
	phases := []phase{{d: cfg.warmup()}, {d: d, control: true}}
	if cfg.trace {
		phases = []phase{{d: cfg.warmup()}, {d: d / 2, control: true}, {d: d / 2, traced: true, control: true}}
	}
	res, err := runPhases(ctx, clients, phases, t0, control, stop, probes)
	if err != nil {
		return nil, err
	}
	m := &measured{main: res[1]}
	if cfg.trace {
		m.traced = res[2]
	}
	return m, nil
}

// addRetrievalMetrics fills the end-to-end retrieval figures from the
// untraced phase and the failure counts from every measured phase.
func (r *report) addRetrievalMetrics(m *measured) {
	p := m.main
	r.attempted, r.failed = p.attempted, p.failed
	if m.traced != nil {
		r.attempted += m.traced.attempted
		r.failed += m.traced.failed
	}
	r.values["slots_per_s"] = mean(p.perClientSlotsPerSec)
	r.values["retrievals_per_s"] = float64(p.attempted) / p.end.Sub(p.start).Seconds()
	r.values["slots_per_cpu_s"] = float64(p.slots) / p.cpu.Seconds()
	r.values["retrievals_per_cpu_s"] = float64(p.attempted) / p.cpu.Seconds()
	// The end-to-end retrieval time is the interquartile mean, the mean
	// of the middle half. A stall of the host stretches the retrievals it
	// covers, which moves the mean and the tail but not the middle half.
	// A median would serve fanout-retrieve and cluster-tuner as well, but
	// catalog-churn's access times are bimodal with about half in each
	// mode, so its median jumps between the modes from run to run, while
	// the middle half's mean moves smoothly with the share in each.
	r.values["retrieval_us_iqm"] = interquartileMean(p.retrievalUs)
	r.values["retrieval_us_mean"] = mean(p.retrievalUs)
	r.values["retrieval_us_p50"] = quantile(p.retrievalUs, 0.5)
	r.values["retrieval_us_p90"] = quantile(p.retrievalUs, 0.9)
	r.values["retrieval_us_p99"] = quantile(p.retrievalUs, 0.99)
	r.values["access_slots_mean"] = mean(p.accessSlots)
	r.values["access_slots_p50"] = slotQuantile(p.accessSlots, 0.5)
	r.values["access_slots_p99"] = slotQuantile(p.accessSlots, 0.99)
	r.values["check.deadline_miss_ratio"] = float64(r.failed) / float64(max(r.attempted, 1))
	r.values["client.blocks_used_mean"] = float64(p.blocksUsed) / float64(max(p.attempted, 1))
	r.values["client.slots_per_retrieval"] = float64(p.slots) / float64(max(p.attempted, 1))
	r.detail["retrieval_samples"] = len(p.retrievalUs)
	r.detail["failures"] = map[string]int{"missed_deadline": p.missed, "incomplete": p.incomplete, "wrong_bytes": p.mismatched}
	if m.traced == nil {
		return
	}
	b := m.traced
	r.values["trace.overhead_pct"] = 100 * (interquartileMean(b.retrievalUs)/r.values["retrieval_us_iqm"] - 1)
	r.values["trace.overhead_rps_pct"] = 100 * (1 - float64(b.attempted)/b.end.Sub(b.start).Seconds()/r.values["retrievals_per_s"])
	// Per-retrieval self times: every layer's share of the traced
	// retrievals, and what no layer accounts for.
	self := b.tracer.self
	total := 0.0
	for name, v := range self {
		if name != "recycle" {
			total += mean(v)
		}
	}
	residual := mean(self["retrieval"]) + mean(self["run"])
	r.values["retrieve.request_us_p50"] = quantile(self["request"], 0.5)
	r.values["retrieve.verify_us_p50"] = quantile(self["verify"], 0.5)
	r.values["retrieve.recycle_us_p50"] = quantile(self["recycle"], 0.5)
	r.values["source.next_us_per_retrieval"] = quantile(self["source.next"], 0.5)
	r.values["client.slot_us_per_retrieval"] = quantile(self["client.slot"], 0.5)
	r.values["client.complete_us_p50"] = quantile(self["client.complete"], 0.5)
	r.values["trace.residual_us_mean"] = residual
	r.values["trace.accounted_pct"] = 100 * (total - residual) / max(total, 1e-9)
	r.spans = b.tracer
}
