package pinbcast

import (
	"context"
	"errors"
	"io"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestSlotSourcesShareServe reads one served channel through two
// SlotSources at once: together they must see every slot index exactly
// once, each in increasing order, whether or not the channel is
// buffered (a buffered adapter may have run ahead before the claim).
func TestSlotSourcesShareServe(t *testing.T) {
	for _, buffer := range []int{0, 64} {
		st, _ := lifecycleStation(t, WithSlotBuffer(buffer))
		ctx, cancel := context.WithCancel(context.Background())
		slots, err := st.Serve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		const per = 2000
		srcs := []Source{SlotSource(slots), SlotSource(slots)}
		seen := make([][]int, len(srcs))
		errs := make([]error, len(srcs))
		var wg sync.WaitGroup
		for i, src := range srcs {
			wg.Add(1)
			go func(i int, src Source) {
				defer wg.Done()
				for len(seen[i]) < per {
					slot, err := src.Next()
					if err != nil {
						errs[i] = err
						return
					}
					seen[i] = append(seen[i], slot.T)
				}
			}(i, src)
		}
		wg.Wait()
		cancel()
		for range slots {
		}
		var all []int
		for i, ts := range seen {
			if errs[i] != nil {
				t.Fatalf("buffer %d: source %d: %v", buffer, i, errs[i])
			}
			if !sort.IntsAreSorted(ts) {
				t.Fatalf("buffer %d: source %d saw slots out of order", buffer, i)
			}
			all = append(all, ts...)
		}
		sort.Ints(all)
		for i, ti := range all {
			if ti != i {
				t.Fatalf("buffer %d: slot %d missing or duplicated (sorted position %d holds T=%d)", buffer, i, i, ti)
			}
		}
	}
}

// TestSlotSourceClaimsMidStream claims a serve whose goroutine is
// blocked sending a slot, with the channel buffer (if any) full: the
// source must deliver those slots first, then pull on from the next.
func TestSlotSourceClaimsMidStream(t *testing.T) {
	for _, buffer := range []int{0, 64} {
		st, _ := lifecycleStation(t, WithSlotBuffer(buffer))
		ctx, cancel := context.WithCancel(context.Background())
		slots, err := st.Serve(ctx)
		if err != nil {
			t.Fatal(err)
		}
		const raw = 5
		for i := 0; i < raw; i++ {
			<-slots
		}
		f, _ := feeds.Load(slots)
		for f.(*feed).state.Load() != feedBusy || len(slots) < cap(slots) {
			time.Sleep(100 * time.Microsecond)
		}
		src := SlotSource(slots)
		for want := raw; want < raw+2*buffer+100; want++ {
			slot, err := src.Next()
			if err != nil {
				t.Fatal(err)
			}
			if slot.T != want {
				t.Fatalf("buffer %d: source got T=%d, want %d", buffer, slot.T, want)
			}
		}
		cancel()
		for range slots {
		}
	}
}

// TestFeedClaimDrains checks when a claim must first drain the
// channel: whenever the serve goroutine may have a slot in flight, and
// when it is idle with slots left in the buffer.
func TestFeedClaimDrains(t *testing.T) {
	for _, c := range []struct {
		state    int32
		buffered int
		drain    bool
	}{
		{feedIdle, 0, false},
		{feedIdle, 2, true},
		{feedBusy, 0, true},
		{feedClaimed, 0, true},
	} {
		f := &feed{out: make(chan Slot, 4)}
		f.state.Store(c.state)
		for i := 0; i < c.buffered; i++ {
			f.out <- Slot{T: i}
		}
		if got := f.claim(); got != c.drain {
			t.Errorf("state %d, %d buffered: drain = %v, want %v", c.state, c.buffered, got, c.drain)
		}
		if f.state.Load() != feedClaimed {
			t.Errorf("state %d: not claimed after claim", c.state)
		}
	}
}

// TestSlotSourceRawServeAlone checks that a channel no SlotSource
// claims is still fed, slot by slot, by the serve goroutine.
func TestSlotSourceRawServeAlone(t *testing.T) {
	st, _ := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for slot := range slots {
		if slot.T != want {
			t.Fatalf("raw reader got T=%d, want %d", slot.T, want)
		}
		if want++; want == 500 {
			break
		}
	}
	cancel()
	for range slots {
	}
}

// TestSlotSourceAdmitSwapsAtBoundary admits a file while a SlotSource
// pulls the stream: the generation must change exactly once, at a
// data-cycle boundary of the pulled stream.
func TestSlotSourceAdmitSwapsAtBoundary(t *testing.T) {
	st, _ := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := SlotSource(slots)
	defer src.Close()
	if src.(*slotSource).feed == nil {
		t.Fatal("SlotSource did not find the serve behind its channel")
	}
	cycle := st.Program().DataCycle()
	for i := 0; i < cycle+3; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Admit(FileSpec{Name: "C", Blocks: 1, Latency: 10}, []byte("file C")); err != nil {
		t.Fatal(err)
	}
	swapT := -1
	for swapT < 0 || st.Generation() != 2 {
		slot, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case slot.Generation == 2 && swapT < 0:
			swapT = slot.T
		case slot.Generation != 1 && swapT < 0, slot.Generation != 2 && swapT >= 0:
			t.Fatalf("slot %d: generation %d (swap at %d)", slot.T, slot.Generation, swapT)
		}
		if slot.T > 64*cycle {
			t.Fatal("admission never took effect")
		}
	}
	if swapT%cycle != 0 {
		t.Fatalf("generation 2 started at slot %d, not on a %d-slot cycle boundary", swapT, cycle)
	}
}

// TestSlotSourceServeCancel cancels a pulled serve: Next ends with
// io.EOF, the channel closes, and the station serves again at once.
func TestSlotSourceServeCancel(t *testing.T) {
	st, _ := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := SlotSource(slots)
	for i := 0; i < 10; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if _, err := src.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("Next after cancel: err = %v, want io.EOF", err)
	}
	for range slots {
	}
	if _, ok := feeds.Load(slots); ok {
		t.Fatal("ended serve still registered")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	slots2, err := st.Serve(ctx2)
	if err != nil {
		t.Fatalf("re-Serve after the channel closed: %v", err)
	}
	if slot, err := SlotSource(slots2).Next(); err != nil || slot.T != 0 {
		t.Fatalf("re-served first slot: T=%d, err=%v", slot.T, err)
	}
}

// TestSlotSourceSlotInterval checks that WithSlotInterval paces pulled
// reads as it paces the channel.
func TestSlotSourceSlotInterval(t *testing.T) {
	st, _ := lifecycleStation(t, WithSlotInterval(time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := SlotSource(slots)
	start := time.Now()
	for {
		slot, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if slot.T == 9 {
			break
		}
	}
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Fatalf("10 slots in %v, want ≥ 9ms pacing", elapsed)
	}
}

// TestSlotSourcePullAllocationFree asserts that a pulled slot costs no
// allocation in steady state.
func TestSlotSourcePullAllocationFree(t *testing.T) {
	st, _ := lifecycleStation(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	slots, err := st.Serve(ctx)
	if err != nil {
		t.Fatal(err)
	}
	src := SlotSource(slots)
	defer src.Close()
	for i := 0; i < 64; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("pulled slot allocates %.2f times, want 0", allocs)
	}
}

// failingSink accepts n slots, then fails.
type failingSink struct{ n int }

var errSinkDown = errors.New("sink down")

func (s *failingSink) Send(Slot) error {
	if s.n == 0 {
		return errSinkDown
	}
	s.n--
	return nil
}

func (s *failingSink) Close() error { return nil }

// TestBroadcastSinkFailureFreesStation checks that Broadcast returns
// the sink's error and leaves the station free to serve at once.
func TestBroadcastSinkFailureFreesStation(t *testing.T) {
	st, _ := lifecycleStation(t)
	if err := st.Broadcast(context.Background(), &failingSink{n: 100}); !errors.Is(err, errSinkDown) {
		t.Fatalf("Broadcast: err = %v, want the sink's error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := st.Serve(ctx); err != nil {
		t.Fatalf("Serve after a failed Broadcast: %v", err)
	}
}
