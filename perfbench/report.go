package main

import (
	"runtime"
	"time"

	"pinbcast"
)

func pick(tiny bool, small, full int) int {
	if tiny {
		return small
	}
	return full
}

// collect runs a full garbage collection, so each set-up starts from the
// same heap state.
func collect() { runtime.GC() }

// contents returns the reference contents the benchmark verifies
// against, and the copy handed to the program. The self-test's corrupt
// mode flips one byte of every served file.
func contents(cfg config, files []pinbcast.FileSpec, block int) (ref, served map[string][]byte) {
	ref = pinbcast.CatalogContents(files, block, cfg.seed)
	served = make(map[string][]byte, len(ref))
	for name, data := range ref {
		c := append([]byte(nil), data...)
		if cfg.corrupt {
			c[len(c)/3] ^= 0xff
		}
		served[name] = c
	}
	return ref, served
}

// counters is a snapshot of the exact counts the program and the Go
// runtime keep, taken around the measured phases.
type counters struct {
	obs   obsSnapshot
	rt    runtimeSnap
	slots int
}

func newCounters(clients []client) (counters, error) {
	o, err := snapObs()
	if err != nil {
		return counters{}, err
	}
	c := counters{obs: o, rt: snapRuntime()}
	for _, cl := range clients {
		c.slots += cl.slots()
	}
	return c, nil
}

// addCounters reports the program's obs-registry deltas and the Go
// runtime's allocation, collection and CPU figures since before.
func (r *report) addCounters(before counters, clients []client) error {
	after, err := newCounters(clients)
	if err != nil {
		return err
	}
	d := after.obs.delta(before.obs)
	for _, c := range obsCounters {
		r.values[c.metric] = d[c.series]
	}
	r.values["obs.fanout_writev_frames_mean"] = 0
	if n := d["pin_fanout_writev_batch_frames:count"]; n > 0 {
		r.values["obs.fanout_writev_frames_mean"] = d["pin_fanout_writev_batch_frames:sum"] / n
	}
	slots := max(after.slots-before.slots, 1)
	wall := after.rt.at.Sub(before.rt.at)
	r.values["go.allocs_per_slot"] = float64(after.rt.mallocs-before.rt.mallocs) / float64(slots)
	r.values["go.gc_cycles"] = float64(after.rt.numGC - before.rt.numGC)
	r.values["go.cpu_util"] = float64(after.rt.cpu-before.rt.cpu) / float64(wall) / float64(runtime.NumCPU())
	if ticks := after.rt.total - before.rt.total; ticks > 0 {
		r.detail["host_steal_pct"] = 100 * float64(after.rt.steal-before.rt.steal) / float64(ticks)
	}
	return nil
}

// addSlotTimings reports the traced per-slot timings: Source.Next on
// the clients, the consumer's work between Next calls, and the station's
// time to produce a slot — the producer's gap between Sink.Send calls
// when a sink is wrapped, otherwise the time a client's Next waits on
// the in-process serve loop.
func (r *report) addSlotTimings(srcs []*probeSource, sink *probeSink) {
	var next, self hist
	for _, s := range srcs {
		next.merge(&s.nextH)
		self.merge(&s.selfH)
	}
	r.values["transport.next_ns_p50"] = next.quantile(0.5)
	r.values["transport.next_ns_p99"] = next.quantile(0.99)
	r.values["client.slot_ns_p50"] = self.quantile(0.5)
	r.values["station.slot_ns_p50"] = next.quantile(0.5)
	if sink != nil {
		r.values["station.slot_ns_p50"] = sink.gapH.quantile(0.5)
		r.detail["transport.send_ns_p50"] = sink.sendH.quantile(0.5)
		r.detail["transport.send_ns_p99"] = sink.sendH.quantile(0.99)
	}
}

// addReceiverMetrics adds one Receiver's counters to the client totals.
// A Receiver has one channel, so it never hops and has no skew.
func (r *report) addReceiverMetrics(m pinbcast.ReceiverMetrics) {
	r.values["client.injected"] += float64(m.Injected)
	r.values["client.corrupted"] += float64(m.Corrupted)
	r.values["client.hops"] = 0
	r.values["client.channel_skew"] = 1
}

// addLayerProbes runs the control-plane layer probe and the IDA probe on
// the workload's catalog.
func (r *report) addLayerProbes(cfg config, files []pinbcast.FileSpec, bw int, served map[string][]byte,
	fresh pinbcast.FileSpec, freshData []byte, reads []string, cs *controlSamples, t0 time.Time) error {
	tr := newTracer(t0, 1<<20)
	if err := layerProbe(cfg, r, files, bw, served, fresh, freshData, reads,
		quantile(cs.admitMs, 0.5), quantile(cs.txnMs, 0.5), tr); err != nil {
		return err
	}
	if r.spans != nil {
		r.spans.merge(tr)
	}
	return idaProbe(cfg, r, files, served)
}
