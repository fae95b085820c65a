package main

import (
	"context"
	"fmt"
	"time"

	"pinbcast"
)

// picker chooses the next file to request and its deadline in slots.
type picker func() (file string, deadline int)

// receiverClient drives one Receiver: Request, Run, verify, Recycle.
type receiverClient struct {
	r    *pinbcast.Receiver
	src  *probeSource
	pick picker
	ref  map[string][]byte
	id   uint64 // last retrieval's trace ID
}

func (c *receiverClient) loop(ctx context.Context, until time.Time, tl *tally, tr *tracer) error {
	for time.Now().Before(until) {
		if err := c.retrieve(ctx, tl, tr); err != nil {
			return err
		}
	}
	return nil
}

func (c *receiverClient) retrieve(ctx context.Context, tl *tally, tr *tracer) error {
	c.id++
	name, deadline := c.pick()
	t0 := time.Now()
	if err := c.r.Request(name, deadline); err != nil {
		return err
	}
	t1 := time.Now()
	c.src.beginRun()
	results, err := c.r.Run(ctx)
	t2 := time.Now()
	if err != nil {
		return fmt.Errorf("run %q after %d slots: %w", name, c.src.nextN, err)
	}
	if len(results) == 0 || results[len(results)-1].File != name {
		return fmt.Errorf("receiver returned no result for %q", name)
	}
	res := results[len(results)-1]
	tl.record(res, c.ref[name], t0)
	t3 := time.Now()
	c.r.Recycle(res)
	if tr != nil {
		t4 := time.Now()
		tr.add(c.id, "retrieval", "", t0, t3.Sub(t0), 1)
		tr.add(c.id, "request", "retrieval", t0, t1.Sub(t0), 1)
		tr.add(c.id, "run", "retrieval", t1, t2.Sub(t1), 1)
		c.src.addRunSpans(tr, c.id, t2)
		tr.add(c.id, "verify", "retrieval", t2, t3.Sub(t2), 1)
		tr.add(c.id, "recycle", "", t3, t4.Sub(t3), 1)
		tr.end()
	}
	return nil
}

func (c *receiverClient) idle() error {
	_, err := c.r.Step()
	return err
}

func (c *receiverClient) slots() int { return c.r.Metrics().Slots }

func (c *receiverClient) setTraced(on bool) { c.src.traced = on }

// tunerClient drives one MultiTuner over a cluster's channels:
// RequestVia along the fetch plan, RunInto, verify, Recycle, and every
// negotiateEvery retrievals one cluster QoS negotiation.
type tunerClient struct {
	mt        *pinbcast.MultiTuner
	srcs      []*probeSource
	plan      map[string][]int
	deadlines map[string]int
	pick      picker
	ref       map[string][]byte
	buf       []pinbcast.ClusterResult
	id        uint64

	negotiate      func() error
	negotiateEvery int
}

func (c *tunerClient) loop(ctx context.Context, until time.Time, tl *tally, tr *tracer) error {
	for time.Now().Before(until) {
		if err := c.retrieve(ctx, tl, tr); err != nil {
			return err
		}
	}
	return nil
}

func (c *tunerClient) retrieve(ctx context.Context, tl *tally, tr *tracer) error {
	c.id++
	name, deadline := c.pick()
	t0 := time.Now()
	if err := c.mt.RequestVia(name, deadline, c.plan[name]); err != nil {
		return err
	}
	t1 := time.Now()
	for _, s := range c.srcs {
		s.beginRun()
	}
	var err error
	c.buf, err = c.mt.RunInto(ctx, c.buf[:0])
	t2 := time.Now()
	if err != nil {
		return err
	}
	if len(c.buf) != 1 || c.buf[0].File != name {
		return fmt.Errorf("multi-tuner returned %d results for one request of %q", len(c.buf), name)
	}
	res := c.buf[0]
	tl.record(res.Result, c.ref[name], t0)
	t3 := time.Now()
	c.mt.Recycle(res)
	if tr != nil {
		t4 := time.Now()
		tr.add(c.id, "retrieval", "", t0, t3.Sub(t0), 1)
		tr.add(c.id, "request", "retrieval", t0, t1.Sub(t0), 1)
		tr.add(c.id, "run", "retrieval", t1, t2.Sub(t1), 1)
		if res.Channel >= 0 {
			// The serving channel's driver is the retrieval's critical
			// path; the other channel's driver runs beside it.
			c.srcs[res.Channel].addRunSpans(tr, c.id, t2)
		}
		tr.add(c.id, "verify", "retrieval", t2, t3.Sub(t2), 1)
		tr.add(c.id, "recycle", "", t3, t4.Sub(t3), 1)
		tr.end()
	}
	if c.negotiate != nil && c.id%uint64(c.negotiateEvery) == 0 {
		return c.negotiate()
	}
	return nil
}

// idle has nothing to do: in-process channels wait for their consumer.
func (c *tunerClient) idle() error { return nil }

// slots sums over the channels: the tuner is one logical receiver.
func (c *tunerClient) slots() int {
	n := 0
	for _, s := range c.mt.Metrics().SlotsPerChannel {
		n += s
	}
	return n
}

func (c *tunerClient) setTraced(on bool) {
	for _, s := range c.srcs {
		s.traced = on
	}
}
