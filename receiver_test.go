package pinbcast

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// receiverStation returns a three-file station covering the paper's
// spread: a hot small file, a colder large one, and a single-block
// bulletin, all with one-fault redundancy.
func receiverStation(t testing.TB) (*Station, map[string][]byte) {
	t.Helper()
	contents := map[string][]byte{
		"A": []byte("file A: the hot real-time bulletin, dispersed twice over"),
		"B": []byte("file B: the colder background map, reconstructed from any three of its blocks"),
		"C": []byte("file C: one-block flash update"),
	}
	st, err := New(
		WithFiles(
			FileSpec{Name: "A", Blocks: 2, Latency: 10, Faults: 1},
			FileSpec{Name: "B", Blocks: 3, Latency: 20, Faults: 1},
			FileSpec{Name: "C", Blocks: 1, Latency: 8, Faults: 1},
		),
		WithContents(contents),
	)
	if err != nil {
		t.Fatal(err)
	}
	return st, contents
}

// record captures n slots of a freshly served broadcast.
func record(t testing.TB, st *Station, n int) *Recording {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(SlotSource(slots), n)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range slots {
	}
	return rec
}

// serveRetry serves a station, retrying while a prior stream still
// holds it.
func serveRetry(t testing.TB, ctx context.Context, st *Station) <-chan Slot {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		slots, err := st.Serve(ctx)
		if err == nil {
			return slots
		}
		if !errors.Is(err, ErrServing) || time.Now().After(deadline) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndToEndFanout is the acceptance path of the receiver API: one
// Station streams through a TCP Fanout to three Receivers that tuned
// in over the network, each suffering independent Bernoulli reception
// faults; every file must reconstruct intact within its latency window
// (deadline = bandwidth × latency slots).
func TestEndToEndFanout(t *testing.T) {
	st, contents := receiverStation(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fan := NewFanout(ln, 0)
	defer fan.Close()

	// Subscribe all three receivers before the first slot goes on air so
	// the run is deterministic; each wants every file, under its own
	// fault stream.
	bw := st.Bandwidth()
	reqs := []Request{
		{File: "A", Deadline: bw * 10},
		{File: "B", Deadline: bw * 20},
		{File: "C", Deadline: bw * 8},
	}
	const nReceivers = 3
	receivers := make([]*Receiver, nReceivers)
	for i := range receivers {
		src, err := DialSource(fan.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		src.Timeout = 5 * time.Second
		receivers[i], err = Subscribe(src,
			WithDirectory(st.Directory()),
			WithRequests(reqs...),
			WithReceiverFaults(BernoulliFaults(0.02, int64(i+1))),
		)
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for fan.ClientCount() < nReceivers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d receivers subscribed", fan.ClientCount())
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go st.Broadcast(ctx, fan)

	var wg sync.WaitGroup
	results := make([][]Result, nReceivers)
	errs := make([]error, nReceivers)
	for i, r := range receivers {
		wg.Add(1)
		go func(i int, r *Receiver) {
			defer wg.Done()
			defer r.Close()
			results[i], errs[i] = r.Run(context.Background())
		}(i, r)
	}
	wg.Wait()

	for i := range receivers {
		if errs[i] != nil {
			t.Fatalf("receiver %d: %v", i, errs[i])
		}
		if len(results[i]) != len(reqs) {
			t.Fatalf("receiver %d: %d results, want %d", i, len(results[i]), len(reqs))
		}
		for _, r := range results[i] {
			if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
				t.Fatalf("receiver %d: file %q not reconstructed intact", i, r.File)
			}
			if !r.DeadlineMet {
				t.Fatalf("receiver %d: file %q took %d slots, window %d",
					i, r.File, r.Latency, r.Deadline)
			}
		}
		m := receivers[i].Metrics()
		if m.Injected > 0 && m.Corrupted < m.Injected {
			t.Fatalf("receiver %d: injected %d corruptions, detected %d", i, m.Injected, m.Corrupted)
		}
	}
}

// TestReceiverSourceParity drives identical Receiver code against the
// in-process transport and a replayed recording of the same broadcast:
// under the same deterministic fault pattern, both must reconstruct
// every file with identical latencies — and both learn the directory
// from the stream without WithDirectory.
func TestReceiverSourceParity(t *testing.T) {
	st, contents := receiverStation(t)
	rec := record(t, st, 6*st.Program().DataCycle())

	subscribe := func(src Source) *Receiver {
		r, err := Subscribe(src,
			WithRequests(Request{File: "A"}, Request{File: "B"}, Request{File: "C"}),
			WithReceiverFaults(SlotFaults(0, 2, 5)),
		)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	latencies := func(results []Result) map[string]int {
		out := make(map[string]int, len(results))
		for _, r := range results {
			if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
				t.Fatalf("file %q not reconstructed intact", r.File)
			}
			out[r.File] = r.Latency
		}
		return out
	}

	// Replay transport.
	replay := subscribe(rec.Source())
	replayResults, err := replay.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// In-process transport, same station rebuilt stream.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots := serveRetry(t, ctx, st)
	inproc := subscribe(SlotSource(slots))
	inprocResults, err := inproc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for range slots {
	}

	lr, li := latencies(replayResults), latencies(inprocResults)
	for file, lat := range lr {
		if li[file] != lat {
			t.Fatalf("file %q: replay latency %d, in-process %d", file, lat, li[file])
		}
	}
	for _, r := range []*Receiver{replay, inproc} {
		if len(r.Directory()) != 3 {
			t.Fatalf("directory not learned from stream: %v", r.Directory())
		}
	}
}

// TestReceiverCache exercises the pluggable reconstructed-file cache:
// a repeat request is served instantly from cache, and the policy
// evicts when capacity is exceeded.
func TestReceiverCache(t *testing.T) {
	st, contents := receiverStation(t)
	rec := record(t, st, 8*st.Program().DataCycle())

	r, err := Subscribe(rec.Source(), WithCache(LRUPolicy(), 2))
	if err != nil {
		t.Fatal(err)
	}
	fetch := func(file string) Result {
		t.Helper()
		if err := r.Request(file, 0); err != nil {
			t.Fatal(err)
		}
		results, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res := results[len(results)-1]
		if !res.Completed || !bytes.Equal(res.Data, contents[file]) {
			t.Fatalf("file %q not reconstructed (completed=%v)", file, res.Completed)
		}
		return res
	}

	if res := fetch("A"); res.FromCache {
		t.Fatal("first retrieval claimed a cache hit")
	}
	if res := fetch("A"); !res.FromCache || res.Latency != 0 {
		t.Fatalf("repeat retrieval not served from cache: %+v", res)
	}
	fetch("B")
	fetch("C") // capacity 2: A (least recently used) is evicted
	if res := fetch("A"); res.FromCache {
		t.Fatal("evicted file still served from cache")
	}
	m := r.Metrics()
	if m.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", m.CacheHits)
	}
	if m.CacheMisses != 4 {
		t.Fatalf("cache misses = %d, want 4", m.CacheMisses)
	}
}

// TestReceiverDozing checks the (1, m)-index tradeoff on a live
// stream: a schedule-aware receiver reconstructs with the same latency
// while listening to strictly fewer slots.
func TestReceiverDozing(t *testing.T) {
	st, contents := receiverStation(t)
	rec := record(t, st, 6*st.Program().DataCycle())

	baseline, err := Subscribe(rec.Source(), WithRequest("B", 0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := baseline.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dozing, err := Subscribe(rec.Source(),
		WithRequest("B", 0),
		WithSchedule(st.Program()),
	)
	if err != nil {
		t.Fatal(err)
	}
	dozed, err := dozing.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if !dozed[0].Completed || !bytes.Equal(dozed[0].Data, contents["B"]) {
		t.Fatal("dozing receiver failed to reconstruct")
	}
	if dozed[0].Latency != base[0].Latency {
		t.Fatalf("dozing changed access latency: %d vs %d", dozed[0].Latency, base[0].Latency)
	}
	bm, dm := baseline.Metrics(), dozing.Metrics()
	if dm.Listened >= bm.Listened {
		t.Fatalf("dozing did not reduce tuning time: %d vs %d", dm.Listened, bm.Listened)
	}
	if dm.Dozed == 0 {
		t.Fatal("no slots dozed")
	}
	if got := dm.TuningRatio(); got >= 1 {
		t.Fatalf("tuning ratio = %v, want < 1", got)
	}
}

// TestReceiverDozingSurvivesGenerationSwap: a schedule-aware receiver
// whose program is re-aligned by an online Admit loses its doze
// alignment; it must detect the generation swap in the stream and fall
// back to continuous listening rather than sleep through the slots of
// a file its stale schedule has never heard of.
func TestReceiverDozingSurvivesGenerationSwap(t *testing.T) {
	st, _ := receiverStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots := serveRetry(t, ctx, st)

	// The request is for a file the gen-1 schedule does not contain: a
	// receiver that keeps dozing on that schedule would never wake.
	payload := []byte("file D: admitted after the receiver tuned in")
	r, err := Subscribe(SlotSource(slots),
		WithRequest("D", 0),
		WithSchedule(st.Program()),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Latch the receiver onto generation 1 before the admission.
	for i := 0; i < 3; i++ {
		if _, err := r.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Admit(FileSpec{Name: "D", Blocks: 1, Latency: 16}, payload); err != nil {
		t.Fatal(err)
	}
	runCtx, runCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer runCancel()
	results, err := r.Run(runCtx)
	if err != nil {
		t.Fatalf("receiver stuck dozing on a stale schedule: %v", err)
	}
	if !results[0].Completed || !bytes.Equal(results[0].Data, payload) {
		t.Fatal("admitted file not reconstructed after the swap")
	}
}

// TestReceiverFlushOnStreamEnd: a request the recording cannot satisfy
// is flushed as a failure when the replay runs dry.
func TestReceiverFlushOnStreamEnd(t *testing.T) {
	st, _ := receiverStation(t)
	rec := record(t, st, 3) // far too short to rebuild B
	r, err := Subscribe(rec.Source(), WithRequest("B", 4))
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Completed {
		t.Fatalf("truncated stream produced %+v", results)
	}
}

// TestSubscribeValidation covers the option error paths.
func TestSubscribeValidation(t *testing.T) {
	if _, err := Subscribe(nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil source: err = %v, want ErrBadSpec", err)
	}
	rec := &Recording{}
	if _, err := Subscribe(rec.Source(), WithCache(nil, 4)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil policy: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithCache(LRUPolicy(), 0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero capacity: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithSchedule(nil)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil schedule: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithRequest("", 0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty file: err = %v, want ErrBadSpec", err)
	}
	if _, err := Subscribe(rec.Source(), WithRequest("A", 0), WithRequest("A", 0)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate request: err = %v, want ErrBadSpec", err)
	}
}

// TestTunerTradeoff checks the public (1, m) air-index analyzer: more
// index copies cut tuning time below the continuous-listening
// baseline, at a bounded bandwidth overhead.
func TestTunerTradeoff(t *testing.T) {
	st, _ := receiverStation(t)
	prog := st.Program()
	tuner, err := NewTuner(prog, 2)
	if err != nil {
		t.Fatal(err)
	}
	if oh := tuner.Overhead(); oh <= 0 || oh >= 1 {
		t.Fatalf("overhead = %v", oh)
	}
	if tuner.Copies() != 2 || tuner.Period() <= prog.Period {
		t.Fatalf("indexed period %d (m=%d) not longer than base %d",
			tuner.Period(), tuner.Copies(), prog.Period)
	}
	_, idxTuning, err := tuner.Sweep("B", 0)
	if err != nil {
		t.Fatal(err)
	}
	contLatency, contTuning, err := tuner.SweepContinuous("B", 0)
	if err != nil {
		t.Fatal(err)
	}
	if contTuning != contLatency {
		t.Fatalf("continuous client: tuning %v != latency %v", contTuning, contLatency)
	}
	if idxTuning >= contTuning {
		t.Fatalf("indexed tuning %v not below continuous %v", idxTuning, contTuning)
	}
	if _, err := tuner.Query("no-such-file", 0, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("unknown file: err = %v, want ErrBadSpec", err)
	}
	if _, err := NewTuner(nil, 1); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("nil program: err = %v, want ErrBadSpec", err)
	}
	if _, err := NewTuner(prog, 0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero copies: err = %v, want ErrBadSpec", err)
	}
}

// TestFanoutSlotWraparound replays a broadcast through a TCP Fanout
// with slot numbers starting 8 slots short of 2³², where the 32-bit
// wire slot wraps to 0. A receiver tuned in before the wrap must
// collect the blocks on both sides of it and rebuild the file.
func TestFanoutSlotWraparound(t *testing.T) {
	const base = 1<<32 - 8
	payload := []byte("file A: four blocks that straddle the slot-number wrap")
	st, err := New(
		WithFile(FileSpec{Name: "A", Blocks: 4, Latency: 24}, payload),
		WithFile(FileSpec{Name: "B", Blocks: 1, Latency: 3}, []byte("b")),
	)
	if err != nil {
		t.Fatal(err)
	}
	slots := record(t, st, 4*st.Program().DataCycle()).Slots()
	before := 0
	for _, slot := range slots[:8] {
		if slot.File == "A" {
			before++
		}
	}
	if before == 0 || before >= 4 {
		t.Fatalf("%d of A's 4 blocks fall before the wrap; the test needs some on each side", before)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fan := NewFanout(ln, 0)
	defer fan.Close()
	src, err := DialSource(fan.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	src.Timeout = 5 * time.Second
	r, err := Subscribe(src, WithDirectory(st.Directory()), WithRequest("A", 0))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for deadline := time.Now().Add(5 * time.Second); fan.ClientCount() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("receiver never subscribed")
		}
	}
	go func() {
		for i, slot := range slots {
			slot.T = base + i
			if fan.Send(slot) != nil {
				return
			}
		}
	}()
	results, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || !results[0].Completed || !bytes.Equal(results[0].Data, payload) {
		t.Fatalf("file A not rebuilt across the wrap: %+v", results)
	}
	if end := base + results[0].Latency; end < 1<<32 {
		t.Fatalf("A completed at slot %d, before the wrap", end)
	}
}

// TestRecordingAsSink verifies the Sink half of Recording: a station
// broadcast captured through Station.Broadcast replays to a receiver.
func TestRecordingAsSink(t *testing.T) {
	st, contents := receiverStation(t)
	rec := &Recording{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- st.Broadcast(ctx, rec) }()
	deadline := time.Now().Add(5 * time.Second)
	want := 4 * st.Program().DataCycle()
	for rec.Len() < want {
		if time.Now().After(deadline) {
			t.Fatalf("recorded %d of %d slots", rec.Len(), want)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r, err := Subscribe(rec.Source(), WithRequest("A", 0))
	if err != nil {
		t.Fatal(err)
	}
	results, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !results[0].Completed || !bytes.Equal(results[0].Data, contents["A"]) {
		t.Fatal("replayed broadcast did not reconstruct")
	}
}
