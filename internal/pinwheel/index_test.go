package pinwheel_test

import (
	"math/rand"
	"testing"

	"pinbcast/internal/core"
	"pinbcast/internal/pinwheel"
	"pinbcast/internal/rtdb"
)

// denseWindows is the prefix-table verifier the occurrence index
// replaced, kept as the oracle: prefix[i][t] counts task i in slots
// [0, t), and every cyclic window of every task is counted directly in
// O(tasks·P) time and memory. It reports whether task i gets at least
// need[i] slots in every window of window[i] slots.
func denseWindows(slots []int, need, window []int) []bool {
	p := len(slots)
	prefix := make([][]int32, len(need))
	for i := range prefix {
		prefix[i] = make([]int32, p+1)
	}
	for t, v := range slots {
		for i := range prefix {
			prefix[i][t+1] = prefix[i][t]
		}
		if v != pinwheel.Idle {
			prefix[v][t+1]++
		}
	}
	ok := make([]bool, len(need))
	for i := range need {
		ok[i] = true
		for start := 0; start < p; start++ {
			if denseCount(prefix[i], start, window[i]) < need[i] {
				ok[i] = false
				break
			}
		}
	}
	return ok
}

// denseCount counts a task's slots in the cyclic window of w slots at
// start, from the task's prefix row.
func denseCount(prefix []int32, start, w int) int {
	p := len(prefix) - 1
	got := w / p * int(prefix[p])
	if rem := w % p; rem > 0 {
		end := start + rem
		if end <= p {
			got += int(prefix[end] - prefix[start])
		} else {
			got += int(prefix[p]-prefix[start]) + int(prefix[end-p])
		}
	}
	return got
}

// walk returns the slot of the k-th (k ≥ 1) occurrence of task i at or
// after slot t, stepping one slot at a time.
func walk(slots []int, i, t, k int) int {
	for ; ; t++ {
		if slots[t%len(slots)] == i {
			if k--; k == 0 {
				return t
			}
		}
	}
}

// fuzzCase turns fuzzer bytes into a slot array in which every task
// 0..tasks−1 occurs (tasks are numbered by first appearance; byte
// values ≥ 200 are idle slots, the rest name one of five tasks).
func fuzzCase(data []byte) (slots []int, tasks int) {
	if len(data) > 96 {
		data = data[:96]
	}
	id := map[byte]int{}
	for _, v := range data {
		if v >= 200 {
			slots = append(slots, pinwheel.Idle)
			continue
		}
		v %= 5
		if _, ok := id[v]; !ok {
			id[v] = len(id)
		}
		slots = append(slots, id[v])
	}
	return slots, len(id)
}

// checkIndex compares every query the occurrence index answers with its
// brute-force definition on one slot array.
func checkIndex(t *testing.T, slots []int, tasks int, a, b uint8) {
	t.Helper()
	p := len(slots)
	if tasks == 0 {
		return
	}
	sys := make(pinwheel.System, tasks)
	need, window := make([]int, tasks), make([]int, tasks)
	infos := make([]core.FileInfo, tasks)
	for i := range sys {
		need[i] = 1 + (int(a)+i)%4
		window[i] = 1 + (int(b)+7*i)%(2*p+1)
		sys[i] = pinwheel.Task{A: need[i], B: window[i]}
		m := 1 + (int(a)+int(b)+i)%3
		infos[i] = core.FileInfo{Name: string(rune('A' + i)), M: m, N: m + 1 + i%3, Demand: m}
	}
	dense := denseWindows(slots, need, window)
	allOK := true
	for _, ok := range dense {
		allOK = allOK && ok
	}
	sch := pinwheel.NewSchedule(slots, "fuzz")
	if err := sch.Verify(sys); (err == nil) != allOK {
		t.Fatalf("slots %v, system %v: Verify = %v, dense oracle passes = %v", slots, sys, err, allOK)
	}
	prog, err := core.NewProgram(infos, slots, 0, "fuzz")
	if err != nil {
		t.Fatalf("slots %v: %v", slots, err)
	}
	x := prog.Index()
	for i := 0; i < tasks; i++ {
		if err := prog.VerifyWindows(i, need[i], window[i]); (err == nil) != dense[i] {
			t.Fatalf("slots %v: VerifyWindows(%d, %d, %d) = %v, dense oracle passes = %v",
				slots, i, need[i], window[i], err, dense[i])
		}
		if start, got, ok := x.Window(i, need[i], window[i]); !ok {
			// The reported window must really be short.
			prefix := make([]int32, p+1)
			for u, v := range slots {
				prefix[u+1] = prefix[u]
				if v == i {
					prefix[u+1]++
				}
			}
			if want := denseCount(prefix, start, window[i]); got != want || got >= need[i] {
				t.Fatalf("slots %v task %d: window at %d reported %d occurrences, holds %d, needs %d",
					slots, i, start, got, want, need[i])
			}
		}

		// MaxGap: the largest cyclic distance between consecutive
		// occurrences.
		gap := 0
		for u := 0; u < p; u++ {
			if slots[u] == i {
				gap = max(gap, walk(slots, i, u+1, 1)-u)
			}
		}
		if got := prog.MaxGap(i); got != gap {
			t.Fatalf("slots %v: Program.MaxGap(%d) = %d, brute force %d", slots, i, got, gap)
		}
		if got := sch.MaxGap(i); got != gap {
			t.Fatalf("slots %v: Schedule.MaxGap(%d) = %d, brute force %d", slots, i, got, gap)
		}

		// LatencyProfile: wait for M occurrences from every start slot.
		m := infos[i].M
		total, worst := 0, 0
		for s := 0; s < p; s++ {
			lat := walk(slots, i, s, m) - s + 1
			total += lat
			worst = max(worst, lat)
		}
		if mean, w := prog.LatencyProfile(i); mean != float64(total)/float64(p) || w != worst {
			t.Fatalf("slots %v: LatencyProfile(%d) = (%v, %d), brute force (%v, %d)",
				slots, i, mean, w, float64(total)/float64(p), worst)
		}

		// AIDADelay: the adversary's best extra wait with r kills.
		for r := 0; m+r <= infos[i].N; r++ {
			want := 0
			for s := 0; s < p; s++ {
				want = max(want, walk(slots, i, s, m+r)-walk(slots, i, s, m))
			}
			if got, err := core.AIDADelay(prog, i, r); err != nil || got != want {
				t.Fatalf("slots %v: AIDADelay(%d, %d) = %d, %v; brute force %d", slots, i, r, got, err, want)
			}
		}
	}

	// TxnLatency from every start slot, over a read set of every file.
	txn := rtdb.Txn{Name: "all", Deadline: 1}
	for i := range infos {
		txn.Reads = append(txn.Reads, infos[i].Name)
	}
	worst := 0
	for s := 0; s < p; s++ {
		want := 0
		for i := range infos {
			want = max(want, walk(slots, i, s, infos[i].M)-s+1)
		}
		worst = max(worst, want)
		if got, err := rtdb.TxnLatency(prog, txn, s); err != nil || got != want {
			t.Fatalf("slots %v: TxnLatency(start %d) = %d, %v; brute force %d", slots, s, got, err, want)
		}
	}
	if got, err := rtdb.TxnWorstLatency(prog, txn); err != nil || got != worst {
		t.Fatalf("slots %v: TxnWorstLatency = %d, %v; brute force %d", slots, got, err, worst)
	}

	// BlockAt over one data cycle: AIDA rotation numbers each file's
	// transmissions from slot 0.
	seen := make([]int, tasks)
	for u := 0; u < prog.DataCycle(); u++ {
		f, seq := prog.BlockAt(u)
		if v := slots[u%p]; f != v {
			t.Fatalf("slots %v: BlockAt(%d) file %d, slot holds %d", slots, u, f, v)
		}
		if f == pinwheel.Idle {
			continue
		}
		if want := seen[f] % infos[f].N; seq != want {
			t.Fatalf("slots %v: BlockAt(%d) = block %d of file %d, want %d", slots, u, seq, f, want)
		}
		seen[f]++
	}
}

// FuzzOccurrenceIndex checks the occurrence index against brute-force
// definitions and the dense prefix-table oracle on fuzzer-chosen slot
// arrays.
func FuzzOccurrenceIndex(f *testing.F) {
	f.Add([]byte{0, 1}, uint8(0), uint8(1))
	f.Add([]byte{0, 1, 0, 255, 1}, uint8(1), uint8(4))
	f.Add([]byte{0, 255, 255, 255}, uint8(0), uint8(2)) // passes (1, 4) only
	f.Add([]byte{0, 0, 0, 1}, uint8(0), uint8(2))
	f.Add([]byte{0, 1, 2, 0, 3, 1, 0, 2, 255, 4, 0, 1}, uint8(7), uint8(11))
	f.Fuzz(func(t *testing.T, data []byte, a, b uint8) {
		slots, tasks := fuzzCase(data)
		checkIndex(t, slots, tasks, a, b)
	})
}

// TestOccurrenceIndexRandom runs the fuzz property over seeded random
// slot arrays, so plain `go test` covers it beyond the seed corpus.
func TestOccurrenceIndexRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		data := make([]byte, 1+rng.Intn(40))
		for k := range data {
			data[k] = byte(rng.Intn(256))
		}
		slots, tasks := fuzzCase(data)
		checkIndex(t, slots, tasks, uint8(rng.Intn(256)), uint8(rng.Intn(256)))
	}
}

// TestWindowStartsOffOccurrence pins the window form: a task that occurs
// once per period 4 must fail (1, 3). Checking only windows that begin
// on an occurrence would pass it.
func TestWindowStartsOffOccurrence(t *testing.T) {
	sch := pinwheel.NewSchedule([]int{0, pinwheel.Idle, pinwheel.Idle, pinwheel.Idle}, "manual")
	if err := sch.Verify(pinwheel.System{{A: 1, B: 3}}); err == nil {
		t.Fatal("a gap of 4 passed a window of 3")
	}
	if err := sch.Verify(pinwheel.System{{A: 1, B: 4}}); err != nil {
		t.Fatal(err)
	}
}
