package rtdb

import (
	"fmt"
	"runtime"
	"testing"

	"pinbcast/internal/core"
)

// TestScaleLinearProgram builds the churn catalog (Blocks 2, Latency
// 8n, Faults 1 at bandwidth 1) at n = 8192 files, a period of 65536
// slots. A per-file × per-slot table at this size would take
// 8192 × 65537 × 4 B ≈ 2.1 GB; the occurrence index must keep program
// construction within 64·(P+n) bytes and every query linear.
func TestScaleLinearProgram(t *testing.T) {
	const n = 8192
	files := make([]core.FileSpec, n)
	for i := range files {
		files[i] = core.FileSpec{Name: fmt.Sprintf("c%04d", i), Blocks: 2, Latency: 8 * n, Faults: 1}
	}
	prog, err := core.BuildProgram(files, 1)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Period != 8*n {
		t.Fatalf("period %d, want %d", prog.Period, 8*n)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	again, err := core.NewProgram(prog.Files, prog.Slots, prog.Bandwidth, prog.Origin)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*(prog.Period+n))
	if got > limit {
		t.Fatalf("NewProgram allocated %d bytes for P=%d, n=%d; limit %d", got, prog.Period, n, limit)
	}
	t.Logf("NewProgram allocated %d bytes for P=%d, n=%d (limit %d)", got, prog.Period, n, limit)

	for i := range again.Files {
		if _, worst := again.LatencyProfile(i); worst > 8*n {
			t.Fatalf("file %d: worst latency %d exceeds its window %d", i, worst, 8*n)
		}
	}
	x := Txn{Name: "pair", Reads: []string{files[0].Name, files[n-1].Name}, Deadline: 8 * n}
	worst, err := TxnWorstLatency(again, x)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 8*n {
		t.Fatalf("transaction worst latency %d exceeds the window %d", worst, 8*n)
	}
}
