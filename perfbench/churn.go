package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pinbcast"
)

// catalog-churn: one Station at bandwidth 1 with n = 256 files of
// (Blocks 2, Latency 8n, Faults 1) — period 2048, the scale scenario —
// served in-process to one Receiver that keeps retrieving, while the
// main loop cycles Admit of a fresh file → Evict → AdmitTxn → ReleaseTxn.
// Writes run beside reads: each Admit and Evict builds a generation that
// the serve loop swaps in under the live reader at a data-cycle
// boundary, and the loop waits for each swap so every generation goes
// live. This is where admission cost shows.
//
// A cycle starts every churnCycle, or as soon as the previous one ends
// if that took longer; a late cycle does not make later ones catch up.
// The fixed cadence gives every run the same writes per second: cycles
// run back to back would take whatever CPU the reader left them, and
// the mix of reads and writes, with every figure of the run, would
// change from run to run.

type churnRig struct {
	st     *pinbcast.Station
	src    *probeSource
	rcv    *pinbcast.Receiver
	cl     *receiverClient
	slots  <-chan pinbcast.Slot
	cancel context.CancelFunc
}

func (g *churnRig) close() {
	g.cancel()
	g.src.Close()
	for range g.slots { // the serve loop closes its channel once cancelled
	}
}

// churnCycle is the cadence of the control loop's write cycles, about
// twice what one cycle takes on an idle 2-core host at n = 256.
const churnCycle = 150 * time.Millisecond

func churnCatalog(n int) []pinbcast.FileSpec {
	files := make([]pinbcast.FileSpec, n)
	for i := range files {
		files[i] = pinbcast.FileSpec{Name: fmt.Sprintf("c%04d", i), Blocks: 2, Latency: 8 * n, Faults: 1}
	}
	return files
}

func newChurnRig(cfg config, files []pinbcast.FileSpec, served, ref map[string][]byte) (*churnRig, setupTime, error) {
	start, startCPU := time.Now(), processCPU()
	st, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(served), pinbcast.WithBandwidth(1))
	if err != nil {
		return nil, setupTime{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		cancel()
		return nil, setupTime{}, err
	}
	g := &churnRig{st: st, slots: slots, cancel: cancel, src: &probeSource{src: pinbcast.SlotSource(slots)}}
	deadlines, worst := stationDeadlines(st)
	g.rcv, err = pinbcast.Subscribe(g.src, pinbcast.WithDirectory(st.Directory()),
		pinbcast.WithReceiverFaults(faultModel(cfg, 0, worst)))
	if err != nil {
		g.close()
		return nil, setupTime{}, err
	}
	g.cl = &receiverClient{r: g.rcv, src: g.src, ref: ref, pick: uniformPicker(files, deadlines, cfg.seed*7919)}
	if _, err := g.rcv.Step(); err != nil {
		g.close()
		return nil, setupTime{}, err
	}
	return g, setupTime{wall: g.src.first.Sub(start), cpu: g.src.firstCPU - startCPU}, nil
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// awaitGeneration waits until generation want is live on the air.
func awaitGeneration(st *pinbcast.Station, want int) error {
	for wait := time.Now(); st.Generation() != want; time.Sleep(50 * time.Microsecond) {
		if time.Since(wait) > 20*time.Second {
			return fmt.Errorf("generation %d not live after 20s (live: %d)", want, st.Generation())
		}
	}
	return nil
}

func runChurn(cfg config) (*report, error) {
	t0 := time.Now()
	const block = 1024
	n := pick(cfg.tiny, 16, 256)
	files := churnCatalog(n)
	ref, served := contents(cfg, files, block)

	var g *churnRig
	var setups setupTimes
	for i := 0; i < cfg.setups(); i++ {
		if g != nil {
			g.close()
		}
		collect()
		var t setupTime
		var err error
		if g, t, err = newChurnRig(cfg, files, served, ref); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t)
	}
	defer g.close()
	r := newReport(envStamp(cfg, files, block, 1, 1))
	setups.report(r)
	r.values["heap_mb"] = liveHeapMB()

	var cs controlSamples
	admits := 0
	rng := rand.New(rand.NewSource(cfg.seed * 104729))
	freshData := make([]byte, 2*block)
	rng.Read(freshData)
	control := func(until time.Time) error {
		for next := time.Now(); next.Before(until); next = later(next.Add(churnCycle), time.Now()) {
			time.Sleep(time.Until(next))
			f := pinbcast.FileSpec{Name: fmt.Sprintf("fresh-%06d", admits), Blocks: 2, Latency: 8 * n, Faults: 1}
			if err := cs.admit(g.st, f, freshData); err != nil {
				return err
			}
			admits++
			if err := awaitGeneration(g.st, 2*admits); err != nil {
				return err
			}
			if err := cs.evict(g.st, f.Name); err != nil {
				return err
			}
			if err := awaitGeneration(g.st, 2*admits+1); err != nil {
				return err
			}
			reads := []string{files[rng.Intn(n)].Name, files[rng.Intn(n)].Name, files[rng.Intn(n)].Name}
			x := pinbcast.Txn{Name: fmt.Sprintf("txn-%06d", admits), Reads: reads, Deadline: 1 << 30}
			if err := cs.txnOnce(g.st, x); err != nil {
				return err
			}
		}
		return nil
	}

	clients := []client{g.cl}
	before, err := newCounters(clients)
	if err != nil {
		return nil, err
	}
	m, err := measure(context.Background(), cfg, clients, t0, control, func() { g.src.Close() })
	if err != nil {
		return nil, err
	}
	if err := r.addCounters(before, clients); err != nil {
		return nil, err
	}
	r.addRetrievalMetrics(m)
	r.addSlotTimings([]*probeSource{g.src}, nil)
	rm := g.rcv.Metrics()
	r.gate(rm.Injected > 0 && rm.Injected == rm.Corrupted,
		"receiver: %d faults injected, %d corruptions detected", rm.Injected, rm.Corrupted)
	r.addReceiverMetrics(rm)
	r.gate(g.st.Generation() == 1+2*admits, "live generation %d after %d admissions, want %d",
		g.st.Generation(), admits, 1+2*admits)
	r.gate(r.values["obs.station_swaps"] == float64(2*admits), "%v generation swaps after %d admissions, want %d",
		r.values["obs.station_swaps"], admits, 2*admits)
	r.detail["admissions"] = admits
	cs.addMetrics(r)
	g.close()

	reads := []string{files[0].Name, files[n/2].Name, files[n-1].Name}
	fresh := pinbcast.FileSpec{Name: "fresh", Blocks: 2, Latency: 8 * n, Faults: 1}
	return r, r.addLayerProbes(cfg, files, 1, served, fresh, freshData, reads, &cs, t0)
}
