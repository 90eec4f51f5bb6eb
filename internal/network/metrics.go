package network

import (
	"memnet/internal/link"
	"memnet/internal/metrics"
	"memnet/internal/stats"
)

// AttachMetrics registers the network's time-series on reg, fanning out
// over links and DRAMs the same way AttachAudit does for invariants. All
// samplers are read-only pulls over counters the simulation already
// maintains — attaching a nil registry (the disabled path) registers
// nothing, and an attached registry schedules nothing until Start.
//
// The link residency series answer the paper's central time-resolved
// question — what fraction of link time is spent off/waking versus
// powered — while the queue and latency series localize where wakeup
// cascades and management slowdowns buffer traffic.
func (n *Network) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	// Per-power-state link residency, summed over all links, as
	// picoseconds of residency gained per sampling interval. The network
	// wires none of the link's failure states, so on, off and waking
	// partition every interval.
	for s := link.StateOn; s <= link.StateWaking; s++ {
		s := s
		reg.Counter("link.residency."+s.String()+"_ps", func() float64 {
			total := 0.0
			for _, l := range n.Links {
				total += float64(l.StateTimes(n.Kernel.Now())[s])
			}
			return total
		})
	}
	reg.Gauge("link.buffer_occupancy", func() float64 {
		total := 0
		for _, l := range n.Links {
			total += l.QueueLen()
		}
		return float64(total)
	})
	reg.Gauge("network.in_flight", func() float64 { return float64(n.Outstanding()) })
	reg.Counter("network.reads_completed", func() float64 { return float64(n.readsDone) })
	reg.Counter("network.read_latency_ps", func() float64 { return float64(n.readLatSum) })
	reg.Counter("network.read_hops", func() float64 { return float64(n.readHops) })
	reg.HistogramSeries("network.read_latency_hist", latencyBounds(), func(cum []uint64) {
		n.latHist.CopyBuckets(cum)
	})
	reg.Gauge("dram.vault_queue_depth", func() float64 {
		total := 0
		for _, m := range n.Modules {
			total += m.DRAM.QueuedRequests()
		}
		return float64(total)
	})
	reg.Gauge("dram.outstanding_reads", func() float64 {
		total := 0
		for _, m := range n.Modules {
			total += m.DRAM.OutstandingReads()
		}
		return float64(total)
	})
}

// latencyBounds mirrors stats.LatencyHist's log₂ layout: bucket i counts
// read latencies of bit length i, so its inclusive upper edge is
// 2^i − 1 picoseconds.
func latencyBounds() []float64 {
	bounds := make([]float64, stats.NumBuckets)
	for i := range bounds {
		bounds[i] = float64(uint64(1)<<uint(i) - 1)
	}
	return bounds
}
