package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// result is the last line a run prints.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// details is the failure breakdown on the line before the result.
type details struct {
	Detail struct {
		Failures map[string]int
	}
}

// tinyRun runs one workload at self-test size and decodes its result.
func tinyRun(t *testing.T, name string, cfg config) (int, result, details, string) {
	t.Helper()
	cfg.seed, cfg.seconds, cfg.tiny = 7, 0.3, true
	var out, errs bytes.Buffer
	code := emit(cfg, name, workloads[name], &out, &errs)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	var d details
	if len(lines) < 2 || json.Unmarshal([]byte(lines[len(lines)-1]), &r) != nil ||
		json.Unmarshal([]byte(lines[len(lines)-2]), &d) != nil {
		t.Fatalf("%s: exit %d, no result lines\n%s%s", name, code, out.String(), errs.String())
	}
	return code, r, d, errs.String()
}

// manifest returns BENCHMARK.json's metric units by list.
func manifest(t *testing.T) (e2e, layer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]string{}, map[string]string{}
	for _, d := range m.EndToEnd {
		e2e[d.Name] = d.Unit
	}
	for _, d := range m.PerLayer {
		layer[d.Name] = d.Unit
	}
	return e2e, layer
}

// TestEveryWorkloadReportsItsMetrics runs every workload untraced and
// traced and checks it prints exactly the manifest's metrics, with
// their units, and passes every check.
func TestEveryWorkloadReportsItsMetrics(t *testing.T) {
	e2e, layer := manifest(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			want := e2e
			if traced {
				want = layer
			}
			code, r, _, errs := tinyRun(t, name, config{trace: traced})
			if code != 0 || !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: exit %d, correct %v, %d of %d failed\n%s",
					name, traced, code, r.Correct, r.Failed, r.Attempted, errs)
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, manifest lists %d", name, traced, len(r.Metrics), len(want))
			}
			for m, unit := range want {
				if got, ok := r.Metrics[m]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", name, traced, m, got, unit)
				}
			}
		}
	}
}

// TestChecksFire proves the correctness checks can fail a run: served
// contents that differ from the reference fail the byte comparison, and
// a fault process beyond rᵢ per window makes deadlines be missed.
func TestChecksFire(t *testing.T) {
	cases := []struct {
		cfg   config
		cause string
	}{
		{config{corrupt: true}, "wrong_bytes"},
		{config{overFault: true}, "missed_deadline"},
	}
	for _, name := range workloadNames() {
		for _, c := range cases {
			code, r, d, _ := tinyRun(t, name, c.cfg)
			if code != 1 || r.Correct || r.Failed == 0 || d.Detail.Failures[c.cause] == 0 {
				t.Errorf("%s %+v: exit %d, correct %v, %d of %d failed (%v); want failures by %s",
					name, c.cfg, code, r.Correct, r.Failed, r.Attempted, d.Detail.Failures, c.cause)
			}
		}
	}
}

// TestSpacedFaultsKeepTheBudget checks the benchmark's own fault model:
// no window of gap slots ever holds two faults, and faults do occur.
func TestSpacedFaultsKeepTheBudget(t *testing.T) {
	f := newSpacedFaults(3, 1, 100)
	last, n := -1000, 0
	for s := 0; s < 200000; s++ {
		if !f.Corrupts(s) {
			continue
		}
		if s-last <= 100 {
			t.Fatalf("faults at %d and %d share a window of 100 slots", last, s)
		}
		last = s
		n++
	}
	if n < 900 {
		t.Fatalf("only %d faults in 200000 slots", n)
	}
}
