package pinbcast

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"pinbcast/internal/core"
	"pinbcast/internal/obs"
)

// cursor is the slot engine of one Serve or Broadcast. The broadcast
// program is periodic, so slot t is a pure function of the live
// generation and t's offset into it: whichever goroutine holds the
// cursor computes the next slot itself. Generations are read through
// the station's atomic pointers, so the per-slot path takes no
// station lock.
type cursor struct {
	st    *Station
	done  <-chan struct{}
	tick  *time.Ticker // nil when consumer-paced
	gen   *generation
	t     int // absolute slot index since the cursor opened
	local int // slot index within gen
	phase int // local modulo gen.cycle: 0 at a data-cycle boundary
}

// open claims the station's single serve slot and returns a cursor
// that runs until ctx is cancelled. The caller must release it with
// close.
func (st *Station) open(ctx context.Context) (*cursor, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.serving {
		return nil, ErrServing
	}
	st.serving = true
	cur := &cursor{st: st, done: ctx.Done()}
	if st.interval > 0 {
		cur.tick = time.NewTicker(st.interval)
	}
	return cur, nil
}

// close stops the cursor's pacing and frees the station to serve
// again. The cursor must not be used afterwards.
func (c *cursor) close() {
	if c.tick != nil {
		c.tick.Stop()
	}
	c.st.mu.Lock()
	c.st.serving = false
	c.st.mu.Unlock()
}

// pace waits for the slot interval's next tick when the cursor is
// paced. It reports false once the cursor's context is done. It takes
// no lock, so pullers sharing a cursor wait for their ticks in
// parallel and each tick releases one slot.
//
//pinlint:hotpath
func (c *cursor) pace() bool {
	if c.tick == nil {
		return true
	}
	select {
	case <-c.done:
		return false
	case <-c.tick.C:
		return true
	}
}

// next computes the next slot into slot. It reports false once the
// cursor's context is done; BenchmarkStationPull asserts it runs at 0
// allocs/op.
//
//pinlint:hotpath
func (c *cursor) next(slot *Slot) bool {
	select {
	case <-c.done:
		return false
	default:
	}
	if c.phase == 0 {
		c.boundary() //pinlint:allow cycleboundary — the cursor is where a staged generation goes live, and only at a data-cycle boundary
	}
	gen := c.gen
	*slot = Slot{T: c.t, Generation: gen.id}
	if file, seq := gen.program.BlockAt(c.local); file != core.Idle {
		slot.File = gen.program.Files[file].Name
		slot.Seq = seq
		slot.Block = gen.srv.EmitBlock(c.local)
		slot.Payload = gen.srv.Emit(c.local)
		traceRing.Emit(obs.SlotServed, -1, slot.Block.FileID, uint64(c.t), uint64(gen.id))
	} else {
		stIdleSlots.Inc()
	}
	stSlots.Inc()
	c.t++
	c.local++
	if c.phase++; c.phase == gen.cycle {
		c.phase = 0
	}
	return true
}

// boundary swaps in the staged generation, if any. Program changes
// take effect exactly at data-cycle boundaries: every window guarantee
// of the outgoing program is complete and the block rotation of the
// incoming program starts aligned. The station lock is taken only
// when a swap is staged, so that latest never sees the staged
// generation cleared before it is live.
//
//pinlint:cycle-boundary
//pinlint:hotpath
func (c *cursor) boundary() {
	st := c.st
	if st.pending.Load() != nil {
		st.mu.Lock()
		if gen := st.pending.Load(); gen != nil {
			st.gen.Store(gen)
			st.pending.Store(nil)
			c.local = 0
			stSwaps.Inc()
		}
		st.mu.Unlock()
	}
	c.gen = st.gen.Load()
}

// Feed states: who may use a Serve call's cursor.
const (
	feedIdle    int32 = iota // the adapter may take the cursor for its next slot
	feedBusy                 // the adapter is computing or sending a slot
	feedClaimed              // SlotSources pull the cursor; the adapter is parked
)

// feed is one Serve call: its cursor and the adapter goroutine that
// pushes the cursor's slots onto the served channel for raw readers.
// A SlotSource over the channel claims the cursor from the adapter and
// pulls it in its caller's goroutine.
type feed struct {
	state  atomic.Int32
	mu     sync.Mutex // serializes pullers once the cursor is claimed
	cur    *cursor
	out    chan Slot
	parked chan struct{} // closed when the adapter has sent its last slot
}

// feeds finds the feed behind a served channel, from Serve until the
// serve ends: the channel is all SlotSource is given.
var feeds sync.Map // <-chan Slot → *feed

// run is the adapter goroutine: it feeds the channel until a SlotSource
// claims the cursor or ctx ends, then waits out ctx and closes the
// channel.
func (f *feed) run() {
	f.pump()
	close(f.parked)
	<-f.cur.done
	feeds.Delete((<-chan Slot)(f.out))
	// Wait out any puller mid-slot; later pulls see ctx done.
	f.mu.Lock()
	f.cur.close()
	f.mu.Unlock()
	close(f.out)
}

// pump is the raw-channel delivery loop; BenchmarkStationServe asserts
// it streams at 0 allocs/op in steady state.
//
//pinlint:hotpath
func (f *feed) pump() {
	var slot Slot
	for f.cur.pace() && f.state.CompareAndSwap(feedIdle, feedBusy) {
		if !f.cur.next(&slot) {
			return
		}
		select {
		case <-f.cur.done:
			return
		case f.out <- slot:
		}
		if !f.state.CompareAndSwap(feedBusy, feedIdle) {
			return // claimed while this slot was in flight
		}
	}
}

// claim hands the cursor to a SlotSource. It reports whether the
// source must first drain slots the adapter already computed: ones in
// the channel buffer or the one in flight. A claim that finds neither
// returns at once, without waking the adapter.
func (f *feed) claim() (drain bool) {
	if f.state.Swap(feedClaimed) == feedIdle {
		return len(f.out) > 0
	}
	return true
}

// pull computes the next slot into slot in the caller's goroutine.
//
//pinlint:hotpath
func (f *feed) pull(slot *Slot) bool {
	if !f.cur.pace() {
		return false
	}
	f.mu.Lock()
	ok := f.cur.next(slot)
	f.mu.Unlock()
	return ok
}
