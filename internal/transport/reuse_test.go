package transport

import (
	"net"
	"testing"
)

// TestNextReuseAllocationFree pins the zero-allocation receive path: a
// warm NextReuse loop over a mixed idle/data frame stream must not
// allocate (header and payload both read through the reuse buffer).
func TestNextReuseAllocationFree(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const frames = 2000
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		// Frames are built in one reused buffer, as the fan-out writer
		// builds them, so the writer side allocates nothing per frame
		// either.
		payload := make([]byte, 4096)
		var wire []byte
		for i := 0; i < frames; i++ {
			var p []byte // idle slot
			if i%3 != 0 {
				p = payload
			}
			if wire, err = AppendFrame(wire[:0], i, p); err == nil {
				_, err = conn.Write(wire)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	r, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 100; i++ { // warm the reuse buffer
		if _, _, err := r.NextReuse(0); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, _, err := r.NextReuse(0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("NextReuse allocates %v per frame, want 0", allocs)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
