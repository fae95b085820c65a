package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"pinbcast/internal/client"
	"pinbcast/internal/core"
	"pinbcast/internal/server"
)

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("block payload")
	wire, err := AppendFrame(nil, 42, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wire, err = AppendFrame(wire, 43, nil); err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(wire)
	slot, got, err := ReadFrame(buf)
	if err != nil || slot != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("frame 1: slot=%d err=%v", slot, err)
	}
	slot, got, err = ReadFrame(buf)
	if err != nil || slot != 43 || got != nil {
		t.Fatalf("frame 2: slot=%d payload=%v err=%v", slot, got, err)
	}
}

func TestReadFrameShort(t *testing.T) {
	if _, _, err := ReadFrame(bytes.NewReader([]byte{1, 2})); err == nil {
		t.Fatal("short header accepted")
	}
	wire, _ := AppendFrame(nil, 1, []byte("abcdef"))
	trunc := wire[:len(wire)-2]
	if _, _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadFrameOversized(t *testing.T) {
	var hdr [8]byte
	hdr[4] = 0xff // declared length 0xff000000
	if _, _, err := ReadFrame(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestAppendFrameOversized(t *testing.T) {
	if _, err := AppendFrame(nil, 0, make([]byte, MaxFramePayload+1)); err == nil {
		t.Fatal("oversized payload accepted")
	}
}

func newBroadcaster(t *testing.T) (*Broadcaster, *server.Server, map[string][]byte) {
	prog, err := core.FlatSpread([]core.FileSpec{
		{Name: "A", Blocks: 5, Latency: 1, DispersalWidth: 10},
		{Name: "B", Blocks: 3, Latency: 1, DispersalWidth: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	contents := map[string][]byte{
		"A": []byte("file A travels the network as dispersed blocks"),
		"B": []byte("file B too"),
	}
	srv, err := server.New(prog, contents)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return NewBroadcaster(ln, srv), srv, contents
}

func TestBroadcastOverTCP(t *testing.T) {
	b, srv, contents := newBroadcaster(t)
	defer b.Close()

	recv, err := Dial(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	waitClients(t, b, 1)

	go func() {
		if err := b.Run(32, 0); err != nil {
			t.Error(err)
		}
	}()

	// Feed received frames into the standard client until both files
	// reconstruct.
	c, err := client.New(0, srv.Names(),
		[]client.Request{{File: "A"}, {File: "B"}})
	if err != nil {
		t.Fatal(err)
	}
	for !c.Done() {
		slot, payload, err := recv.Next(2 * time.Second)
		if err != nil {
			t.Fatalf("receive: %v", err)
		}
		c.Observe(slot, payload)
	}
	for _, r := range c.Results() {
		if !r.Completed || !bytes.Equal(r.Data, contents[r.File]) {
			t.Fatalf("file %q corrupted over network", r.File)
		}
	}
}

func TestBroadcastFanOutTwoClients(t *testing.T) {
	b, srv, contents := newBroadcaster(t)
	defer b.Close()

	r1, err := Dial(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := Dial(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	waitClients(t, b, 2)

	go b.Run(32, 0)

	for i, recv := range []*Receiver{r1, r2} {
		c, err := client.New(0, srv.Names(),
			[]client.Request{{File: "A"}})
		if err != nil {
			t.Fatal(err)
		}
		for !c.Done() {
			slot, payload, err := recv.Next(2 * time.Second)
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
			c.Observe(slot, payload)
		}
		if got := c.Results()[0].Data; !bytes.Equal(got, contents["A"]) {
			t.Fatalf("client %d got wrong bytes", i)
		}
	}
}

func TestDeadClientDropped(t *testing.T) {
	b, _, _ := newBroadcaster(t)
	defer b.Close()

	recv, err := Dial(b.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	waitClients(t, b, 1)
	recv.Close() // client goes away without telling anyone

	// Broadcasting enough data must eventually notice and drop it.
	if err := b.Run(4096, 0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for b.ClientCount() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead client never dropped")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestCloseUnblocksEverything(t *testing.T) {
	b, _, _ := newBroadcaster(t)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Run(8, 0); err == nil {
		t.Fatal("Run after Close succeeded")
	}
}

func TestFanoutSlowClientEvicted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := NewFanout(ln, 50*time.Millisecond)
	defer f.Close()

	// A subscriber that connects and then never reads: once the kernel
	// buffers fill, writes to it must trip the deadline and evict it.
	conn, err := net.Dial("tcp", f.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	deadline := time.Now().Add(2 * time.Second)
	for f.ClientCount() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("subscriber never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// More frames than the per-subscriber queue holds: once the queue
	// and kernel buffers fill, either the producer's bounded wait or
	// the writer's deadline must evict the stalled client.
	payload := make([]byte, 512<<10)
	for i := 0; i < 2048 && f.Evicted() == 0; i++ {
		if err := f.Send(i, payload); err != nil {
			t.Fatal(err)
		}
	}
	evictBy := time.Now().Add(5 * time.Second)
	for f.Evicted() == 0 {
		if time.Now().After(evictBy) {
			t.Fatal("stalled client never evicted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if f.Evicted() != 1 {
		t.Fatalf("evicted = %d, want 1", f.Evicted())
	}
	if f.ClientCount() != 0 {
		t.Fatalf("client count = %d after eviction", f.ClientCount())
	}
	// The broadcast itself is unaffected by having nobody to talk to.
	if err := f.Send(999, []byte("still on air")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Send(1000, nil); err != ErrClosed {
		t.Fatalf("send after close: err = %v, want ErrClosed", err)
	}
}

func waitClients(t *testing.T, b *Broadcaster, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for b.ClientCount() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d clients connected", b.ClientCount(), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReceiverExtendsWireSlot feeds wire slot numbers across the 2³²
// wrap, with a gap and a step back, and checks the extended indices
// keep counting from the first slot heard.
func TestReceiverExtendsWireSlot(t *testing.T) {
	const wrap = 1 << 32
	r := &Receiver{}
	for _, c := range []struct{ wire, want int }{
		{wrap - 2, wrap - 2},
		{wrap - 1, wrap - 1},
		{0, wrap},
		{5, wrap + 5},
		{3, wrap + 3},
		{wrap - 1, wrap - 1},
		{1 << 30, wrap + 1<<30},
		{3<<30 - 1, wrap + 3<<30 - 1}, // 2³¹−1 ahead: the farthest forward step

		{0, 2 * wrap},
	} {
		if got := r.extend(c.wire); got != c.want {
			t.Fatalf("wire %d: extended to %d, want %d", c.wire, got, c.want)
		}
	}
}
