package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// The sandbox this benchmark runs on is a few virtual CPUs of a shared
// host whose speed changes by 10–40% for minutes at a time (README.md has
// the measurements), which is more than any bound. So every run also
// times a reference kernel: a fixed amount of work that shares no code
// with the simulator, run between the repetitions on as many goroutines
// as the workloads have workers. The time metrics a run reports are its
// measured times multiplied by refNominal over the run's median reference
// time: seconds on a machine on which the kernel takes refNominal. A
// change to the simulator cannot move the reference, and a change of the
// machine's speed moves both.
//
// The kernel is a branchy integer loop with no memory traffic: what it
// follows is the speed of the core itself (clock, a busy sibling thread),
// which is what stays changed for minutes. Kernels that chase pointers,
// allocate or page-fault were tried beside it; their own time varies from
// one second to the next, which the median over a run's repetitions
// already averages out of the workload, and they followed the workloads'
// run-to-run changes worse than the loop alone (README.md).

// refNominal is the reference kernel's time on the machine the benchmark
// was written on, in its fast state, so that reported times read as that
// machine's seconds.
const refNominal = 160 * time.Millisecond

var refSink atomic.Uint64 // keeps the kernel's result alive

// refKernel is the reference work on one goroutine. It returns the time
// the work took.
func refKernel() time.Duration {
	t := time.Now()
	x, acc := uint64(2463534242), uint64(0)
	for i := 0; i < 40_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&3 == 0 {
			acc += x >> 5
		} else if x&4 == 0 {
			acc ^= x
		}
	}
	d := time.Since(t)
	refSink.Add(acc)
	return d
}

// refTime runs the kernel on n goroutines at once, as the workloads
// occupy n processors, and returns the mean of their times in seconds.
func refTime(n int) float64 {
	ds := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i := range ds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ds[i] = refKernel()
		}()
	}
	wg.Wait()
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() / float64(n)
}
