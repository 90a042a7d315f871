package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Host-speed correction of the end-to-end metrics.
//
// The reference host is a 2-core sandbox on a shared machine whose memory
// system other tenants load in phases of a minute or more: everything that
// touches memory then runs up to 40 % slower (user and system CPU time
// alike; page faults, steal time and pure arithmetic do not change). A
// whole 20 s run falls inside such a phase, so no choice of trials within
// the run removes it. What does is a reference kernel of the benchmark's
// own, timed in every round right after the trial: it slows by the same
// factor (REPEATABILITY.md has the evidence), so each round's observations
// are scaled by the kernel's time in that round over its time on the quiet
// reference host. A metric then reads "as on the quiet reference host":
// equal to the raw value there, and comparable between runs elsewhere.
//
// The kernel is memory traffic of three kinds over buffers far larger than
// the L2 cache: reads that take one word per cache line, random
// read-modify-writes, and a block copy. Pure arithmetic does not track the
// slowdown and streaming every word tracks it less well; a kernel that
// allocates tracks it too, but its time depends on the state of the
// process's heap, which differs between workloads and would move with the
// code under test. This one allocates nothing, runs on both lanes at once as
// the workloads do, and calls no code under test, so a change to the
// repository cannot move it.
const (
	kernelWords  = 4 << 20 // uint64s per buffer (32 MiB); each lane works on its half
	kernelSweeps = 4       // line-stride passes over the lane's half of stream
	kernelRMWs   = 200_000 // random read-modify-writes into the lane's half of scratch
	kernelCopies = 2       // copies of 8 MiB from stream to scratch
	// kernelRefNS is the kernel's wall time on the quiet reference host: the
	// median round of the quiet runs recorded in REPEATABILITY.md.
	kernelRefNS = 10.2e6
)

type hostKernel struct {
	stream, scratch []uint64
	sink            atomic.Uint64
}

func newHostKernel() *hostKernel {
	k := &hostKernel{stream: make([]uint64, kernelWords), scratch: make([]uint64, kernelWords)}
	for i := range k.stream {
		k.stream[i], k.scratch[i] = uint64(i), uint64(i)
	}
	return k
}

// speed times the kernel once and returns the host's speed relative to the
// quiet reference host: below 1 while the host is slowed down. Once, not
// best of several: between rounds other tenants evict the buffers from the
// shared cache, and how much they evicted is what the first pass measures;
// a second pass right after it runs 1.5 times faster and tracks nothing.
func (k *hostKernel) speed() float64 {
	const half = kernelWords / lanes
	// What the trial left behind must not be collected beside the kernel:
	// the collector's workers would take half the cores for a while.
	runtime.GC()
	var wg sync.WaitGroup
	t0 := time.Now()
	for ln := 0; ln < lanes; ln++ {
		wg.Add(1)
		go func(ln int) {
			defer wg.Done()
			stream, scratch := k.stream[ln*half:(ln+1)*half], k.scratch[ln*half:(ln+1)*half]
			var sum uint64
			for sweep := 0; sweep < kernelSweeps; sweep++ {
				for i := sweep; i < half; i += 8 { // 8 words to a 64-byte line
					sum += stream[i]
				}
			}
			x := uint64(ln)*7919 + 12345
			for i := 0; i < kernelRMWs; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				scratch[(x>>33)%half] += x
			}
			for c := 0; c < kernelCopies; c++ {
				copy(scratch[:half/2], stream[:half/2])
			}
			k.sink.Add(sum + scratch[x%half])
		}(ln)
	}
	wg.Wait()
	return kernelRefNS / float64(time.Since(t0).Nanoseconds())
}
