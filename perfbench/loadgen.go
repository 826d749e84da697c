package main

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// The open-loop generator sends requests on a Poisson schedule fixed
// in advance from the seed, whatever the server does: independent
// users do not wait for each other. Each request is timed from the
// moment it was due, so a stall also charges the requests queued
// behind it. At most conns requests are in flight; a request that
// finds every connection busy waits in the generator's queue, and that
// wait counts in its latency.

// Request kinds.
const (
	kindHit   = "hit"   // a 4-core /v1/sim cell of the hot set
	kindCell  = "cell"  // one 4-core /v1/sim cell
	kindGrid  = "grid"  // one 8x8 grid /v1/sim cell
	kindSweep = "sweep" // a multi-cell /v1/sweep
)

// request is one generated HTTP request.
type request struct {
	kind string
	path string
	body []byte
	// key identifies the response: requests with equal keys must be
	// answered with equal bytes.
	key string
	// hit is the expected cache outcome; coreTicks is the simulated
	// core-ticks of the cells the request asks for.
	hit       bool
	coreTicks int64
}

// arrival is a request and the offset from the phase start at which
// it is due.
type arrival struct {
	due time.Duration
	req request
}

// schedule draws n Poisson arrivals at rate per second, taking each
// request from next. The same rng state gives the same schedule.
func schedule(rng *rand.Rand, rate float64, n int, next func() request) []arrival {
	out := make([]arrival, 0, min(n, maxPhaseRequests))
	t := 0.0
	for len(out) < n && len(out) < maxPhaseRequests {
		t += rng.ExpFloat64() / rate
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), req: next()})
	}
	return out
}

// outcome is what one request saw.
type outcome struct {
	late   time.Duration // how late the generator handed it to a connection
	sent   time.Duration // when a connection started sending it
	done   time.Duration // when its response had been read
	due    time.Duration
	status int
	body   []byte
	err    error
}

// latency is the request's time from its due time to its response.
func (o outcome) latency() time.Duration { return o.done - o.due }

// service is the request's time on a connection, queueing excluded.
func (o outcome) service() time.Duration { return o.done - o.sent }

// drive sends the arrivals open loop over at most conns connections
// and returns one outcome per arrival, in arrival order.
func drive(client *http.Client, base string, arrivals []arrival, conns int) []outcome {
	out := make([]outcome, len(arrivals))
	queue := make(chan int, len(arrivals))
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				o := &out[i]
				o.sent = time.Since(start)
				o.status, o.body, o.err = post(client, base+arrivals[i].req.path, arrivals[i].req.body)
				o.done = time.Since(start)
			}
		}()
	}
	for i, a := range arrivals {
		waitUntil(start, a.due, len(queue) == 0)
		out[i].due = a.due
		out[i].late = max(time.Since(start)-a.due, 0)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return out
}

// timerSlack is how late a timer may fire: sleeps wake at millisecond
// granularity.
const timerSlack = time.Millisecond

// waitUntil returns at start+due. When idle is set — no request is
// waiting for a connection, so the send time is the request's start —
// it sleeps until timerSlack before the due time and yields the
// processor for the rest; otherwise the request will queue anyway, and
// it only sleeps, leaving the processors to the server.
func waitUntil(start time.Time, due time.Duration, idle bool) {
	slack := time.Duration(0)
	if idle {
		slack = timerSlack
	}
	if d := due - time.Since(start) - slack; d > 0 {
		time.Sleep(d)
	}
	for time.Since(start) < due {
		runtime.Gosched()
	}
}

// post sends one JSON request and reads the whole response.
func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
