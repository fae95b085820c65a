package main

import (
	"bytes"
	"fmt"
	"time"

	"pinbcast"
	"pinbcast/internal/core"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/rtdb"
	"pinbcast/internal/server"
)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// controlSamples collects the CPU times of the control-plane calls a
// run makes: Station.Admit, Station.Evict, and QoS negotiation
// (Station.AdmitTxn + ReleaseTxn, or Cluster.Negotiate + Release). Each
// call is synchronous work on its caller's thread, so its thread CPU
// time is its cost without the waits a busy host adds to its wall time.
// Admit and Evict are kept apart: their costs differ, and a quantile of
// the two pooled can fall between them.
type controlSamples struct {
	admitMs, evictMs, txnMs []float64
}

// timed appends f's thread CPU time in ms to samples.
func timed(samples *[]float64, f func() error) error {
	d, err := threadCPUTime(f)
	if err == nil {
		*samples = append(*samples, ms(d))
	}
	return err
}

// admit admits f, recording the call.
func (cs *controlSamples) admit(st *pinbcast.Station, f pinbcast.FileSpec, data []byte) error {
	if err := timed(&cs.admitMs, func() error { return st.Admit(f, data) }); err != nil {
		return fmt.Errorf("admit %q: %w", f.Name, err)
	}
	return nil
}

// evict evicts the file name, recording the call.
func (cs *controlSamples) evict(st *pinbcast.Station, name string) error {
	if err := timed(&cs.evictMs, func() error { return st.Evict(name) }); err != nil {
		return fmt.Errorf("evict %q: %w", name, err)
	}
	return nil
}

// txnOnce negotiates a read-only transaction's contract and releases it.
func (cs *controlSamples) txnOnce(st *pinbcast.Station, x pinbcast.Txn) error {
	return timed(&cs.txnMs, func() error {
		if _, err := st.AdmitTxn(x); err != nil {
			return fmt.Errorf("admit txn %q: %w", x.Name, err)
		}
		if err := st.ReleaseTxn(x.Name); err != nil {
			return fmt.Errorf("release txn %q: %w", x.Name, err)
		}
		return nil
	})
}

// probeStation measures Admit/Evict (and, withTxn, AdmitTxn/ReleaseTxn)
// on a station of its own built from the workload's catalog, while no
// data path runs: the workloads whose control plane stays idle while
// measuring get their control-plane cost this way. It starts from a
// collected heap, so the collector's pacing is the same in every run.
func (cs *controlSamples) probeStation(cfg config, files []pinbcast.FileSpec, contents map[string][]byte,
	fresh pinbcast.FileSpec, data []byte, reads []string, withTxn bool) error {
	st, err := pinbcast.New(pinbcast.WithFiles(files...), pinbcast.WithContents(contents))
	if err != nil {
		return fmt.Errorf("probe station: %w", err)
	}
	collect()
	for i := 0; i < cfg.probeReps(); i++ {
		f := fresh
		f.Name = fmt.Sprintf("%s-%d", fresh.Name, i)
		if err := cs.admit(st, f, data); err != nil {
			return err
		}
		if err := cs.evict(st, f.Name); err != nil {
			return err
		}
		if !withTxn {
			continue
		}
		if err := cs.txnOnce(st, pinbcast.Txn{Name: fmt.Sprintf("probe-%d", i), Reads: reads, Deadline: 1 << 30}); err != nil {
			return err
		}
	}
	return nil
}

func (cs *controlSamples) addMetrics(r *report) {
	r.values["admit_ms_p50"] = quantile(cs.admitMs, 0.5)
	r.values["admit_ms_p90"] = quantile(cs.admitMs, 0.9)
	r.values["txn_admit_ms_p50"] = quantile(cs.txnMs, 0.5)
	r.values["txn_admit_ms_p90"] = quantile(cs.txnMs, 0.9)
	r.values["station.evict_ms_p50"] = quantile(cs.evictMs, 0.5)
	r.detail["control_samples"] = map[string]int{"admit": len(cs.admitMs), "evict": len(cs.evictMs), "txn": len(cs.txnMs)}
}

// layerProbe times, on the file set Station.Admit would build, each call
// Admit makes into the layers below it — rtdb's density test, the
// pinwheel solver and verifier, core's program and window check, the
// server's dispersal — plus the rtdb transaction bound AdmitTxn
// computes. Each figure is a median of thread CPU times over reps, like
// the Admit time it splits; the Admit time these calls leave
// unexplained is the station's own. The spans keep wall times.
func layerProbe(cfg config, r *report, files []pinbcast.FileSpec, bw int, contents map[string][]byte,
	fresh pinbcast.FileSpec, freshData []byte, reads []string, admitMedianMs, txnMedianMs float64, tr *tracer) error {
	all := map[string][]byte{fresh.Name: freshData}
	for k, v := range contents {
		all[k] = v
	}
	reps := cfg.layerReps()
	samples := map[string][]float64{}
	for rep := 0; rep < reps; rep++ {
		id := uint64(1)<<62 | uint64(rep)
		step := func(name string, f func() error) error {
			t := time.Now()
			cpu, err := threadCPUTime(f)
			samples[name] = append(samples[name], float64(cpu)/1e3)
			tr.add(id, name, "probe.admit", t, time.Since(t), 1)
			return err
		}
		start := time.Now()
		var next []core.FileSpec
		var sch *pinwheel.Schedule
		var prog *core.Program
		sys := core.TaskSystem(files, bw)
		steps := []struct {
			name string
			f    func() error
		}{
			{"rtdb.admit", func() (err error) { next, err = rtdb.Admit(files, fresh, bw); return }},
			{"pinwheel.solve", func() (err error) {
				sys = core.TaskSystem(next, bw)
				sch, err = pinwheel.Solve(sys, nil)
				return
			}},
			{"pinwheel.verify", func() error { return sch.Verify(sys) }},
			{"core.new_program", func() (err error) {
				infos := make([]core.FileInfo, len(next))
				for i, f := range next {
					infos[i] = core.FileInfo{Name: f.Name, M: f.Blocks, N: f.Width(), Demand: f.Demand()}
				}
				prog, err = core.NewProgram(infos, sch.Slots, bw, "pinwheel/"+sch.Origin)
				return
			}},
			{"core.verify_windows", func() error {
				for i, f := range next {
					if err := prog.VerifyWindows(i, f.Demand(), bw*f.Latency); err != nil {
						return err
					}
				}
				return nil
			}},
			{"server.new", func() error { _, err := server.New(prog, all); return err }},
			{"rtdb.txn_worst_latency", func() error {
				_, err := rtdb.TxnWorstLatency(prog, rtdb.Txn{Name: "probe", Reads: reads, Deadline: 1 << 30})
				return err
			}},
		}
		for _, s := range steps {
			if err := step(s.name, s.f); err != nil {
				return fmt.Errorf("layer probe %s: %w", s.name, err)
			}
		}
		tr.add(id, "probe.admit", "", start, time.Since(start), 1)
		tr.end()
	}
	admitParts := 0.0
	for _, name := range []string{"rtdb.admit", "pinwheel.solve", "pinwheel.verify", "core.new_program", "core.verify_windows", "server.new"} {
		v := quantile(samples[name], 0.5)
		r.values[name+"_us"] = v
		admitParts += v
	}
	txn := quantile(samples["rtdb.txn_worst_latency"], 0.5)
	r.values["rtdb.txn_worst_latency_us"] = txn
	r.values["station.admit_self_us"] = admitMedianMs*1e3 - admitParts
	r.values["trace.admit_accounted_pct"] = 100 * admitParts / (admitMedianMs * 1e3)
	r.values["station.txn_self_us"] = txnMedianMs*1e3 - txn
	return nil
}

// idaProbe disperses every probed file and rebuilds it from its last m
// blocks, so redundant rows take part and decoding is not a copy.
func idaProbe(cfg config, r *report, files []pinbcast.FileSpec, contents map[string][]byte) error {
	if len(files) > 32 {
		files = files[:32]
	}
	var bytesIn int
	var disperse time.Duration
	var rebuildUs []float64
	for rep := 0; rep < cfg.layerReps(); rep++ {
		for _, f := range files {
			data := contents[f.Name]
			t := time.Now()
			blocks, err := pinbcast.DisperseData(pinbcast.DispersalConfig{
				FileID: pinbcast.FileID(f.Name), Data: data, Threshold: f.Blocks, Width: f.Width()})
			disperse += time.Since(t)
			bytesIn += len(data)
			if err != nil {
				return fmt.Errorf("ida probe disperse %q: %w", f.Name, err)
			}
			t = time.Now()
			out, err := pinbcast.Reconstruct(blocks[len(blocks)-f.Blocks:])
			rebuildUs = append(rebuildUs, float64(time.Since(t))/1e3)
			if err != nil || !bytes.Equal(out, data) {
				return fmt.Errorf("ida probe: %q did not round-trip (%v)", f.Name, err)
			}
		}
	}
	r.values["ida.reconstruct_us_p50"] = quantile(rebuildUs, 0.5)
	r.values["ida.disperse_mbps"] = float64(bytesIn) / disperse.Seconds() / 1e6
	return nil
}
