package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pinbcast"
	"pinbcast/internal/gf256"
	"pinbcast/internal/obs"
)

// envStamp records what a result depends on besides the code, so a
// number is only compared with one from the same host and inputs.
func envStamp(cfg config, files []pinbcast.FileSpec, blockSize, receivers, channels int) map[string]any {
	return map[string]any{
		"seed":           cfg.seed,
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"cpu":            cpuModel(),
		"go":             runtime.Version(),
		"gf256_kernel":   gf256.Kernel(),
		"catalog_digest": catalogDigest(files, blockSize),
		"files":          len(files),
		"block_bytes":    blockSize,
		"receivers":      receivers,
		"channels":       channels,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// catalogDigest identifies the file specifications and block size.
func catalogDigest(files []pinbcast.FileSpec, blockSize int) string {
	h := sha256.New()
	fmt.Fprintf(h, "block=%d\n", blockSize)
	for _, f := range files {
		fmt.Fprintf(h, "%s %d %d %d %d\n", f.Name, f.Blocks, f.Latency, f.Faults, f.DispersalWidth)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// obsSnapshot is a flat copy of the process-wide obs registry: counter
// and gauge values by series, and a histogram's count and sum under
// "<series>:count" and "<series>:sum".
type obsSnapshot map[string]float64

func snapObs() (obsSnapshot, error) {
	var buf bytes.Buffer
	if err := obs.Default().WriteJSON(&buf); err != nil {
		return nil, err
	}
	var fams []struct {
		Name   string
		Series []struct {
			Labels map[string]string
			Value  *int64
			Count  *uint64
			Sum    *uint64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &fams); err != nil {
		return nil, fmt.Errorf("decoding obs registry: %w", err)
	}
	out := obsSnapshot{}
	for _, f := range fams {
		for _, s := range f.Series {
			key := f.Name
			if len(s.Labels) > 0 {
				keys := make([]string, 0, len(s.Labels))
				for k := range s.Labels {
					keys = append(keys, k+"="+s.Labels[k])
				}
				sort.Strings(keys)
				key += "{" + strings.Join(keys, ",") + "}"
			}
			switch {
			case s.Value != nil:
				out[key] = float64(*s.Value)
			case s.Count != nil:
				out[key+":count"] = float64(*s.Count)
				out[key+":sum"] = float64(*s.Sum)
			}
		}
	}
	return out, nil
}

// delta returns after − before for every series in after.
func (after obsSnapshot) delta(before obsSnapshot) obsSnapshot {
	out := obsSnapshot{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// obsCounters names the exact program counters reported beside the
// timed spans, by their per-layer metric name.
var obsCounters = []struct{ metric, series string }{
	{"obs.station_slots", "pin_station_slots_total"},
	{"obs.station_idle_slots", "pin_station_idle_slots_total"},
	{"obs.station_swaps", "pin_station_generation_swaps_total"},
	{"obs.station_builds", "pin_station_build_duration_us:count"},
	{"obs.fanout_frames", "pin_fanout_frames_total"},
	{"obs.fanout_evictions", "pin_fanout_evictions_total"},
	{"obs.fanout_flushes", "pin_fanout_writev_batch_frames:count"},
	{"obs.receiver_slots", "pin_receiver_slots_total"},
	{"obs.receiver_blocks", "pin_receiver_blocks_total"},
	{"obs.receiver_corrupted", "pin_receiver_corrupted_total"},
	{"obs.tuner_completed", "pin_tuner_requests_completed_total"},
	{"obs.tuner_failed", "pin_tuner_requests_failed_total"},
	{"obs.tuner_hops", "pin_tuner_hops_total"},
}

// runtimeSnap is the Go runtime's view of the process at one instant,
// with the host's CPU time counters.
type runtimeSnap struct {
	at      time.Time
	mallocs uint64
	numGC   uint32
	cpu     time.Duration
	// steal and total are the host's stolen and total CPU ticks: time a
	// hypervisor gave this machine's CPUs to someone else slows every
	// figure of the run.
	steal, total uint64
}

func snapRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	var cpu time.Duration
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := runtimeSnap{at: time.Now(), mallocs: ms.Mallocs, numGC: ms.NumGC, cpu: cpu}
	s.steal, s.total = cpuTicks()
	return s
}

// cpuTicks reads the stolen and total ticks of /proc/stat's cpu line;
// zeros where the file is unavailable.
func cpuTicks() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
