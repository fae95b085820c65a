package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"pinbcast"
)

// cluster-tuner: a K=2 Cluster with R=2, the 6 hottest of 24 files
// replicated, 256-byte blocks, served in-process (SlotSource over
// Cluster.Serve) to one MultiTuner whose closed loop picks files by
// Zipf(1.1) popularity and fetches them along the cluster's fetch plan,
// with one Cluster.Negotiate/Release every 500 retrievals. With small
// blocks the per-slot cost dominates: the cluster's serve handoff, the
// tuner's driver and merge logic and the client's classification carry
// the load, and no transport is involved.

// clusterCatalogSeed fixes the file specifications (see fanoutCatalogSeed).
const clusterCatalogSeed = 2

type clusterRig struct {
	c      *pinbcast.Cluster
	mt     *pinbcast.MultiTuner
	srcs   []*probeSource
	cl     *tunerClient
	outs   []<-chan pinbcast.Slot
	cancel context.CancelFunc
}

func (g *clusterRig) close() {
	g.cancel()
	if g.mt != nil {
		g.mt.Close()
	}
	for _, out := range g.outs {
		for range out { // the serve loop closes its channel once cancelled
		}
	}
}

func newClusterRig(cfg config, files []pinbcast.FileSpec, served, ref map[string][]byte, rank []string) (*clusterRig, setupTime, error) {
	start, startCPU := time.Now(), processCPU()
	c, err := pinbcast.NewCluster(pinbcast.WithChannels(2), pinbcast.WithReplicas(2),
		pinbcast.WithReplicateHottest(pick(cfg.tiny, 2, 6)),
		pinbcast.WithClusterFiles(files...), pinbcast.WithClusterContents(served))
	if err != nil {
		return nil, setupTime{}, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	g := &clusterRig{c: c, cancel: cancel}
	if g.outs, err = c.Serve(ctx); err != nil {
		cancel()
		return nil, setupTime{}, err
	}
	plan := c.FetchPlan()
	latency := map[string]int{}
	for _, f := range files {
		latency[f.Name] = f.Latency
	}
	deadlines := map[string]int{}
	for name, order := range plan {
		deadlines[name] = c.Station(order[0]).Bandwidth() * latency[name]
	}
	var srcs []pinbcast.Source
	var models []pinbcast.FaultModel
	for ch, out := range g.outs {
		p := &probeSource{src: pinbcast.SlotSource(out)}
		g.srcs = append(g.srcs, p)
		srcs = append(srcs, p)
		_, worst := stationDeadlines(c.Station(ch))
		models = append(models, faultModel(cfg, ch, worst))
	}
	g.mt, err = pinbcast.NewMultiTuner(srcs, pinbcast.WithTunerDirectory(c.Directory()),
		pinbcast.WithTunerHomes(plan), pinbcast.WithTunerFaults(models...))
	if err != nil {
		g.close()
		return nil, setupTime{}, err
	}
	g.cl = &tunerClient{mt: g.mt, srcs: g.srcs, plan: plan, deadlines: deadlines, ref: ref,
		pick: zipfPicker(rank, deadlines, cfg.seed*7919)}
	// The first retrieval brings the first slot to the tuner.
	if err := g.cl.retrieve(ctx, &tally{}, nil); err != nil {
		g.close()
		return nil, setupTime{}, err
	}
	// Set-up ends when the tuner has its first slot, on either channel.
	var first *probeSource
	for _, s := range g.srcs {
		if !s.first.IsZero() && (first == nil || s.first.Before(first.first)) {
			first = s
		}
	}
	return g, setupTime{wall: first.first.Sub(start), cpu: first.firstCPU - startCPU}, nil
}

// zipfPicker picks rank[k] with probability ∝ 1/(1+k)^1.1: the hottest
// files by the cluster's own heat model are requested most.
func zipfPicker(rank []string, deadlines map[string]int, seed int64) picker {
	z := rand.NewZipf(rand.New(rand.NewSource(seed)), 1.1, 1, uint64(len(rank)-1))
	return func() (string, int) {
		f := rank[z.Uint64()]
		return f, deadlines[f]
	}
}

func runCluster(cfg config) (*report, error) {
	t0 := time.Now()
	const block = 256
	files := randomCatalog(pick(cfg.tiny, 8, 24), clusterCatalogSeed)
	ref, served := contents(cfg, files, block)
	rank := pinbcast.HottestFiles(files, len(files))

	var g *clusterRig
	var setups setupTimes
	for i := 0; i < cfg.setups(); i++ {
		if g != nil {
			g.close()
		}
		collect()
		var t setupTime
		var err error
		if g, t, err = newClusterRig(cfg, files, served, ref, rank); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t)
	}
	defer g.close()
	r := newReport(envStamp(cfg, files, block, 1, 2))
	setups.report(r)

	// Admission cost on one channel's catalog, probed while the
	// in-process channels wait for their consumer.
	var cs controlSamples
	ch0 := g.c.Station(0).Files()
	fresh := pinbcast.FileSpec{Name: "fresh", Blocks: 1, Latency: 80, Faults: 1}
	freshData := make([]byte, block)
	if err := cs.probeStation(cfg, ch0, served, fresh, freshData, nil, false); err != nil {
		return nil, err
	}
	r.values["heap_mb"] = liveHeapMB()

	negotiations := 0
	negPick := zipfPicker(rank, g.cl.deadlines, cfg.seed*104729)
	g.cl.negotiateEvery = pick(cfg.tiny, 50, 500)
	g.cl.negotiate = func() error {
		negotiations++
		file, _ := negPick()
		x := pinbcast.Txn{Name: fmt.Sprintf("q%d", negotiations), Reads: []string{file}, Deadline: 1 << 30}
		return timed(&cs.txnMs, func() error {
			if _, err := g.c.Negotiate(x); err != nil {
				return fmt.Errorf("negotiate %q: %w", x.Name, err)
			}
			if err := g.c.Release(x.Name); err != nil {
				return fmt.Errorf("release %q: %w", x.Name, err)
			}
			return nil
		})
	}

	clients := []client{g.cl}
	before, err := newCounters(clients)
	if err != nil {
		return nil, err
	}
	m, err := measure(context.Background(), cfg, clients, t0, nil, func() {})
	if err != nil {
		return nil, err
	}
	if err := r.addCounters(before, clients); err != nil {
		return nil, err
	}
	r.addRetrievalMetrics(m)
	r.addSlotTimings(g.srcs, nil)
	mm := g.mt.Metrics()
	r.gate(len(mm.DeadChannels) == 0, "multi-tuner declared channels %v dead", mm.DeadChannels)
	r.gate(mm.Injected > 0, "no fault was injected")
	r.values["client.injected"] = float64(mm.Injected)
	r.values["client.corrupted"] = 0 // the MultiTuner does not count detected corruptions
	r.values["client.hops"] = float64(mm.Hops)
	lo, hi := mm.SlotsPerChannel[0], mm.SlotsPerChannel[0]
	for _, s := range mm.SlotsPerChannel {
		lo, hi = min(lo, s), max(hi, s)
	}
	r.values["client.channel_skew"] = float64(hi) / float64(max(lo, 1))
	r.detail["slots_per_channel"] = mm.SlotsPerChannel
	r.detail["negotiations"] = negotiations
	g.close()
	cs.addMetrics(r)
	reads := []string{ch0[0].Name}
	return r, r.addLayerProbes(cfg, ch0, g.c.Station(0).Bandwidth(), served, fresh, freshData, reads, &cs, t0)
}
