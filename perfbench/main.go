// Command perfbench is the repository's benchmark: three closed-loop
// workloads that drive pinbcast only through its public seams, check
// every retrieval against the paper's guarantee — each file rebuilt
// within B·Tᵢ slots, byte for byte, under a fault budget of at most rᵢ
// destroyed slots per window — and time each layer from outside.
//
// Run it from the repository root through the wrapper, which builds it
// from source into .bench_build:
//
//	bash perfbench/run.sh --workload fanout-retrieve --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a traced run, whose spans are
// written to .bench_build/spans. The lines before it record the
// environment, the validity gates and details. The exit code is 1 when
// a retrieval failed the guarantee or a validity gate failed, 2 when the
// run could not be made. BENCHMARK.json lists the workloads and metrics.
//
// The self-test (go test, run in this directory) runs every workload at a
// tiny size, checks it prints exactly BENCHMARK.json's metrics with their
// units, and checks that corrupted contents and a fault process beyond
// rᵢ each fail a run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run. They are chosen to repeat on a shared host: set-up and
// negotiation are CPU times, the retrieval time is the mean of the
// middle half. Throughput and the mean and tail retrieval times move
// with the host's load, so they are per-layer figures.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"retrieval_us_iqm", "us"},
	{"access_slots_mean", "slots"},
	{"access_slots_p99", "slots"},
	{"txn_admit_ms_p50", "ms"},
}

// perLayer are the metrics of single layers, reported by traced runs.
var perLayer = []metricDef{
	{"slots_per_s", "slots/s"},
	{"retrievals_per_s", "1/s"},
	{"slots_per_cpu_s", "slots/cpu-s"},
	{"retrievals_per_cpu_s", "1/cpu-s"},
	{"retrieval_us_mean", "us"},
	{"retrieval_us_p50", "us"},
	{"retrieval_us_p90", "us"},
	{"retrieval_us_p99", "us"},
	{"admit_ms_p50", "ms"},
	{"admit_ms_p90", "ms"},
	{"txn_admit_ms_p90", "ms"},
	{"access_slots_p50", "slots"},
	{"station.slot_ns_p50", "ns"},
	{"transport.next_ns_p50", "ns"},
	{"transport.next_ns_p99", "ns"},
	{"client.slot_ns_p50", "ns"},
	{"client.complete_us_p50", "us"},
	{"client.slots_per_retrieval", "slots"},
	{"client.blocks_used_mean", "blocks"},
	{"client.injected", "count"},
	{"client.corrupted", "count"},
	{"client.hops", "count"},
	{"client.channel_skew", "ratio"},
	{"source.next_us_per_retrieval", "us"},
	{"client.slot_us_per_retrieval", "us"},
	{"retrieve.request_us_p50", "us"},
	{"retrieve.verify_us_p50", "us"},
	{"retrieve.recycle_us_p50", "us"},
	{"trace.residual_us_mean", "us"},
	{"trace.accounted_pct", "%"},
	{"trace.overhead_pct", "%"},
	{"trace.overhead_rps_pct", "%"},
	{"check.deadline_miss_ratio", "ratio"},
	{"station.evict_ms_p50", "ms"},
	{"rtdb.admit_us", "us"},
	{"pinwheel.solve_us", "us"},
	{"pinwheel.verify_us", "us"},
	{"core.new_program_us", "us"},
	{"core.verify_windows_us", "us"},
	{"server.new_us", "us"},
	{"rtdb.txn_worst_latency_us", "us"},
	{"station.admit_self_us", "us"},
	{"trace.admit_accounted_pct", "%"},
	{"station.txn_self_us", "us"},
	{"ida.reconstruct_us_p50", "us"},
	{"ida.disperse_mbps", "MB/s"},
	{"go.allocs_per_slot", "allocs"},
	{"go.gc_cycles", "count"},
	{"go.cpu_util", "ratio"},
	{"obs.station_slots", "count"},
	{"obs.station_idle_slots", "count"},
	{"obs.station_swaps", "count"},
	{"obs.station_builds", "count"},
	{"obs.fanout_frames", "count"},
	{"obs.fanout_evictions", "count"},
	{"obs.fanout_flushes", "count"},
	{"obs.fanout_writev_frames_mean", "frames"},
	{"obs.receiver_slots", "count"},
	{"obs.receiver_blocks", "count"},
	{"obs.receiver_corrupted", "count"},
	{"obs.tuner_completed", "count"},
	{"obs.tuner_failed", "count"},
	{"obs.tuner_hops", "count"},
}

var workloads = map[string]func(config) (*report, error){
	"fanout-retrieve": runFanout,
	"cluster-tuner":   runCluster,
	"catalog-churn":   runChurn,
}

func workloadNames() []string {
	var out []string
	for name := range workloads {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's contents, requests and fault positions derive from")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := checkCPUClocks(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if cfg.trace {
		cfg.spanFile = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	}
	// A hung run must still end: the contract allows 180 seconds.
	watchdog := time.AfterFunc(time.Duration(*seconds*float64(time.Second))+150*time.Second, func() {
		fmt.Fprintf(stderr, "perfbench: %s did not finish in time\n", *name)
		os.Exit(2)
	})
	defer watchdog.Stop()
	return emit(cfg, *name, w, stdout, stderr)
}

// emit runs one workload and prints its result; it returns the exit code.
func emit(cfg config, name string, w func(config) (*report, error), stdout, stderr io.Writer) int {
	r, err := w(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 2
	}
	if cfg.spanFile != "" && r.spans != nil {
		if err := r.spans.writeSpans(cfg.spanFile); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing spans: %v\n", err)
			return 2
		}
		r.detail["span_file"] = cfg.spanFile
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(stderr, "perfbench: %s: metric %s was not measured\n", name, d.name)
			return 2
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	gates := r.gates
	if gates == nil {
		gates = []string{}
	}
	lines := []any{
		map[string]any{"workload": name, "env": r.env},
		map[string]any{"gates_failed": gates, "detail": r.detail},
		map[string]any{"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": metrics},
	}
	for _, l := range lines {
		b, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
		fmt.Fprintln(stdout, string(b))
	}
	if !r.correct() {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d retrievals failed the guarantee; failed gates: %v\n",
			name, r.failed, r.attempted, gates)
		return 1
	}
	return 0
}
