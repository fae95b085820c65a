package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"pinbcast"
	"pinbcast/internal/workload"
)

// fanout-retrieve: one Station broadcasting 16 files of 4 KiB blocks
// through a TCP Fanout on loopback to two Receivers, each a closed loop
// of uniformly chosen retrievals on a goroutine of its own. It exercises the whole networked data
// path — serve, Fanout.Send, writev, TCP, frame decode, classification,
// IDA reconstruction — while the control plane stays idle.

// fanoutCatalogSeed fixes the file specifications, so every run seed
// measures the same catalog; the run seed picks the contents, requests
// and fault positions.
const fanoutCatalogSeed = 1

type fanoutRig struct {
	st      *pinbcast.Station
	fan     *pinbcast.Fanout
	sink    *probeSink
	srcs    []*probeSource
	rcvs    []*pinbcast.Receiver
	clients []client
	cancel  context.CancelFunc
	done    chan error
	closed  bool
}

func (g *fanoutRig) close() {
	if g.closed {
		return
	}
	g.closed = true
	if g.cancel != nil {
		g.cancel()
	}
	g.fan.Close()
	if g.done != nil {
		<-g.done
	}
	for _, s := range g.srcs {
		s.Close()
	}
}

func newFanoutRig(cfg config, files []pinbcast.FileSpec, served, ref map[string][]byte) (*fanoutRig, setupTime, error) {
	start, startCPU := time.Now(), processCPU()
	st, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(served))
	if err != nil {
		return nil, setupTime{}, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, setupTime{}, err
	}
	// The slow-client thresholds are far above any stall a local receiver
	// has; they only bound a run the host itself has paused.
	g := &fanoutRig{st: st, fan: pinbcast.NewFanout(ln, 30*time.Second)}
	deadlines, maxDeadline := stationDeadlines(st)
	for i := 0; i < 2; i++ {
		tcp, err := pinbcast.DialSource(g.fan.Addr().String())
		if err != nil {
			g.close()
			return nil, setupTime{}, err
		}
		tcp.Reuse = true
		tcp.Timeout = 30 * time.Second
		src := &probeSource{src: tcp}
		g.srcs = append(g.srcs, src)
		r, err := pinbcast.Subscribe(src, pinbcast.WithDirectory(st.Directory()),
			pinbcast.WithReceiverFaults(faultModel(cfg, i, maxDeadline)))
		if err != nil {
			g.close()
			return nil, setupTime{}, err
		}
		g.rcvs = append(g.rcvs, r)
		g.clients = append(g.clients, &receiverClient{r: r, src: src, ref: ref, id: uint64(i) << 40,
			pick: uniformPicker(files, deadlines, cfg.seed*7919+int64(i))})
	}
	for wait := time.Now(); g.fan.ClientCount() < 2; runtime.Gosched() {
		if time.Since(wait) > 10*time.Second {
			g.close()
			return nil, setupTime{}, fmt.Errorf("fan-out accepted %d of 2 receivers", g.fan.ClientCount())
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	g.cancel, g.done = cancel, make(chan error, 1)
	g.sink = &probeSink{sink: g.fan}
	go func() { g.done <- st.Broadcast(ctx, g.sink) }()
	// Set-up ends when the last receiver has its first slot.
	last := g.srcs[0]
	for i, r := range g.rcvs {
		if _, err := r.Step(); err != nil {
			g.close()
			return nil, setupTime{}, err
		}
		if g.srcs[i].first.After(last.first) {
			last = g.srcs[i]
		}
	}
	return g, setupTime{wall: last.first.Sub(start), cpu: last.firstCPU - startCPU}, nil
}

// stationDeadlines returns every file's deadline B·Tᵢ in slots, and the
// largest of them.
func stationDeadlines(st *pinbcast.Station) (map[string]int, int) {
	out := map[string]int{}
	worst := 0
	for _, f := range st.Files() {
		d := st.Bandwidth() * f.Latency
		out[f.Name] = d
		worst = max(worst, d)
	}
	return out, worst
}

func uniformPicker(files []pinbcast.FileSpec, deadlines map[string]int, seed int64) picker {
	rng := rand.New(rand.NewSource(seed))
	return func() (string, int) {
		f := files[rng.Intn(len(files))].Name
		return f, deadlines[f]
	}
}

// randomCatalog is workload.Random with every file tolerating one fault.
func randomCatalog(n int, seed int64) []pinbcast.FileSpec {
	files := workload.Random(n, 6, 10, 80, 0, seed)
	for i := range files {
		files[i].Faults = 1
	}
	return files
}

func runFanout(cfg config) (*report, error) {
	t0 := time.Now()
	const block = 4096
	files := randomCatalog(pick(cfg.tiny, 4, 16), fanoutCatalogSeed)
	ref, served := contents(cfg, files, block)
	var cs controlSamples
	fresh := pinbcast.FileSpec{Name: "fresh", Blocks: 1, Latency: 80, Faults: 1}
	freshData := make([]byte, block)
	reads := []string{files[0].Name}
	if err := cs.probeStation(cfg, files, served, fresh, freshData, reads, true); err != nil {
		return nil, err
	}

	var g *fanoutRig
	var setups setupTimes
	for i := 0; i < cfg.setups(); i++ {
		if g != nil {
			g.close()
		}
		collect()
		var t setupTime
		var err error
		if g, t, err = newFanoutRig(cfg, files, served, ref); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups.add(t)
	}
	defer g.close()
	r := newReport(envStamp(cfg, files, block, 2, 1))
	setups.report(r)
	r.values["heap_mb"] = liveHeapMB()

	before, err := newCounters(g.clients)
	if err != nil {
		return nil, err
	}
	m, err := measure(context.Background(), cfg, g.clients, t0, nil, g.close, g.sink)
	if err != nil {
		return nil, fmt.Errorf("%w (fan-out evicted %d receivers)", err, g.fan.Evicted())
	}
	if err := r.addCounters(before, g.clients); err != nil {
		return nil, err
	}
	r.addRetrievalMetrics(m)
	r.addSlotTimings(g.srcs, g.sink)
	r.gate(g.fan.Evicted() == 0, "fan-out evicted %d receivers", g.fan.Evicted())
	for i, rc := range g.rcvs {
		rm := rc.Metrics()
		r.gate(rm.Injected > 0 && rm.Injected == rm.Corrupted,
			"receiver %d: %d faults injected, %d corruptions detected", i, rm.Injected, rm.Corrupted)
		r.addReceiverMetrics(rm)
	}
	cs.addMetrics(r)
	if err := r.addLayerProbes(cfg, files, g.st.Bandwidth(), served, fresh, freshData, reads, &cs, t0); err != nil {
		return nil, err
	}
	return r, nil
}
