package main

import (
	"fmt"
	"os"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The bench host shares its cores, caches and memory bandwidth with other
// tenants, and its speed swings by up to ±30% over tens of seconds. Every
// end-to-end time is therefore multiplied by the host factor measured
// around it: hostRefMs over the wall time of a fixed probe. Over ten
// minutes of cells interleaved with probes, this cut the spread of 20 s
// medians from 0.26-0.32 to 0.04-0.07 on all three simulator workloads.
// The probe is benchmark code, so no change to the program moves it. It
// is shaped like the simulator's hot path — a binary heap of pending
// events, each touching a random object in a 4 MB working set — because
// that is what makes it slow down when the simulator does: a loop that
// stays in registers tracked less than half of the swing.

// hostRefMs is the probe's median wall time on the reference host, a
// 2-vCPU Xeon VM at 2.0 GHz; normalized times are in that host's
// milliseconds.
const hostRefMs = 68.0

const (
	probeObjectBits = 16   // 64 Ki objects of 64 bytes: 4 MB
	probePending    = 4096 // events held in the heap
	probeEvents     = 600_000
)

var (
	probeHeap    = make([]uint64, 0, probePending+1)
	probeOnce    sync.Once
	probeObjects []uint64
)

// probeMemory maps the probe's working set outside the Go heap on first
// use. As heap memory its 4 MB would count toward the collector's target,
// which at SetGCPercent(600) lets 24 MB more garbage pile up between
// collections and moves max_rss_mb from run to run.
func probeMemory() []uint64 {
	probeOnce.Do(func() {
		n := 8 << probeObjectBits
		b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			fmt.Fprintf(os.Stderr, "host probe: mmap: %v; using heap memory\n", err)
			probeObjects = make([]uint64, n)
			return
		}
		probeObjects = unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n)
	})
	return probeObjects
}

// hostClock times calls in the reference host's milliseconds: each wall
// time is multiplied by the mean of the host factors probed just before
// and just after it.
type hostClock struct{ factor float64 }

func newHostClock() *hostClock { return &hostClock{factor: hostFactor()} }

// time runs fn and returns its normalized wall time in milliseconds and
// the factor it applied.
func (h *hostClock) time(fn func()) (ms, factor float64) {
	t := time.Now()
	fn()
	wall := msOf(time.Since(t))
	next := hostFactor()
	factor = (h.factor + next) / 2
	h.factor = next
	return wall * factor, factor
}

// hostFactor runs the probe and returns hostRefMs over its wall time:
// 0.8 when the host currently runs 25% slower than the reference.
func hostFactor() float64 {
	t := time.Now()
	x := uint64(88172645463325252)
	rand := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	const mask = 1<<probeObjectBits - 1
	objects := probeMemory()
	h := probeHeap[:0]
	for i := 0; i < probePending; i++ {
		h = heapPush(h, rand()%probePending<<probeObjectBits|rand()&mask)
	}
	for i := 0; i < probeEvents; i++ {
		var k uint64
		k, h = heapPop(h)
		o := objects[8*(k&mask):]
		o[0] += k
		o[1] ^= o[0]
		at := k >> probeObjectBits
		h = heapPush(h, (at+1+rand()%probePending)<<probeObjectBits|rand()&mask)
	}
	probeHeap = h
	return hostRefMs / msOf(time.Since(t))
}

// heapPush and heapPop keep a binary min-heap of event keys (time in the
// high bits, object index in the low bits).
func heapPush(h []uint64, k uint64) []uint64 {
	h = append(h, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func heapPop(h []uint64) (uint64, []uint64) {
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && h[r] < h[m] {
			m = r
		}
		if h[i] <= h[m] {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top, h
}
