package main

import (
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// cpuTime is the CPU time the process has used, user plus system. Time
// the hypervisor gives to other tenants does not count, so CPU per
// operation holds where wall-clock latency moves with the machine's load.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setOpCPU records op_cpu_ms: CPU time spent per completed operation.
func (r *report) setOpCPU(cpu time.Duration, ops int, what string) {
	r.e2e["op_cpu_ms"] = measure{V: float64(cpu) / 1e6 / float64(max(ops, 1)), N: ops, Note: what}
}

// Go runtime figures cut across the value and eval layers, which have no
// public seam of their own: GC CPU share and allocation per operation over
// the measured run, and peak live heap over the whole process.
var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/memory/classes/heap/objects:bytes",
}

type rtSample struct{ gcCPU, totalCPU, allocBytes, heapBytes float64 }

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	f := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return rtSample{f(0), f(1), f(2), f(3)}
}

// heapWatch samples the live heap every few milliseconds until stopped.
type heapWatch struct {
	mu   sync.Mutex
	peak float64
	stop chan struct{}
	done chan struct{}
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			b := readRuntime().heapBytes
			h.mu.Lock()
			h.peak = max(h.peak, b)
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// end stops the sampler and returns the peak live heap in MB.
func (h *heapWatch) end() float64 {
	close(h.stop)
	<-h.done
	return h.peak / (1 << 20)
}

// setRuntime records the go.* layer metrics from samples taken at the
// start and end of the measured run.
func (r *report) setRuntime(a, b rtSample, ops int, heapPeakMB float64) {
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		r.setLayer("go.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
	if ops > 0 {
		r.setLayer("go.alloc_bytes_per_op", (b.allocBytes-a.allocBytes)/float64(ops))
	}
	r.setLayer("go.heap_peak_mb", heapPeakMB)
}
