package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// op is one generated request: which endpoint, and the JSON body.
type op struct {
	kind int // index into the workload's endpoint list
	path string
	body []byte
}

// result is what the harness saw for one op.
type result struct {
	lat  time.Duration // response end minus the due time (send time if the sender was idle)
	svc  time.Duration // response end minus send time
	late time.Duration // send time minus due time
	ok   bool
	body []byte // kept only for ops the caller asked to check
}

// sendFunc issues op i and returns its response body and whether it
// succeeded (2xx).
type sendFunc func(i int) (body []byte, ok bool)

// openLoop issues n ops on a fixed schedule — op i is due at
// start + i/rate — from `senders` goroutines, whatever the responses do.
// An op whose sender was still busy at its due time is timed from the due
// time, not from when it was sent, so a stall that delays later sends
// shows in their latencies (no coordinated omission). keep reports
// whether op i's body should be kept.
func openLoop(n int, rate float64, senders int, send sendFunc, keep func(i int) bool) []result {
	out := make([]result, n)
	var next atomic.Int64
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				idle := time.Until(due)
				if idle > 0 {
					time.Sleep(idle)
				}
				sent := time.Now()
				body, ok := send(i)
				done := time.Now()
				// A sender still busy at the due time was held up by the
				// daemon, so the latency runs from the due time. A sender
				// that slept only overshot its own timer (about 1 ms on
				// Linux for short sleeps); that is the harness's lateness,
				// reported apart, not the daemon's latency.
				from := due
				if idle > 0 {
					from = sent
				}
				r := result{lat: done.Sub(from), svc: done.Sub(sent), late: sent.Sub(due), ok: ok}
				if keep != nil && keep(i) {
					r.body = body
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop issues ops 0..n-1 from `workers` goroutines, each sending its
// next op as soon as its previous one completes, and returns the wall
// time and the number of failed ops.
func closedLoop(n, workers int, send sendFunc) (time.Duration, int) {
	var next, failed atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if _, ok := send(i); !ok {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), int(failed.Load())
}

// client is the benchmark's HTTP client: at most two keep-alive
// connections to the daemon under test.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConns:        2,
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// post sends body to path and returns the response body and whether the
// status was 2xx. A transport error counts as a failure.
func (c *client) post(path string, body []byte) ([]byte, bool) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	data, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	return data, err == nil && resp.StatusCode/100 == 2
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sender adapts an op list to a sendFunc, cycling through the list when
// asked for more ops than it holds.
func (c *client) sender(ops []op) sendFunc {
	return func(i int) ([]byte, bool) {
		o := ops[i%len(ops)]
		return c.post(o.path, o.body)
	}
}

// endpointDists splits open-loop results into one latency set per op
// kind and pools the harness's own lateness.
func endpointDists(ops []op, res []result, kinds int) (per []dist, late dist, failed int) {
	per = make([]dist, kinds)
	for i, r := range res {
		per[ops[i%len(ops)].kind].add(r.lat)
		late.add(r.late)
		if !r.ok {
			failed++
		}
	}
	return per, late, failed
}
