package main

import (
	"math/rand"
	"sync"
	"time"
)

// arrivals returns n Poisson arrival offsets at the given rate (per
// second), deterministic in seed: independent users make an open loop,
// so requests are due on this schedule whatever the server is doing.
func arrivals(seed int64, rate float64, n int) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// openLoop sends request i at start+sched[i], each on its own goroutine
// so a slow reply never delays a later send, and waits for all of them.
// It returns how late each send started, in milliseconds. do receives
// the due time, from which latency is measured: a stall then also
// charges the wait it imposes on requests due during it.
func openLoop(start time.Time, sched []time.Duration, do func(i int, due time.Time)) []float64 {
	lags := make([]float64, len(sched))
	var wg sync.WaitGroup
	for i, off := range sched {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lags[i] = float64(time.Since(due)) / 1e6
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do(i, due)
		}(i)
	}
	wg.Wait()
	return lags
}
