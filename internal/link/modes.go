// Package link models one unidirectional high-speed point-to-point link:
// flit serialization, SERDES latency, buffering with read-over-write
// priority, the three circuit-level power control mechanisms the paper
// studies (rapid on/off, DVFS, variable-width links), idle/active energy
// integration, and the hardware counters ("delay monitors", idle-interval
// histograms) that the management policies of §V/§VI read each epoch.
package link

import (
	"fmt"

	"memnet/internal/packet"
	"memnet/internal/sim"
)

// Mechanism selects the bandwidth-scaling mechanism a link supports. Rapid
// on/off is orthogonal and enabled separately (the paper evaluates VWL,
// ROO, VWL+ROO, DVFS, and DVFS+ROO).
type Mechanism int

const (
	// MechNone fixes the link at full bandwidth.
	MechNone Mechanism = iota
	// MechVWL varies the number of active lanes (16/8/4/1). Power scales
	// as (lanes+1)/17 — the I/O clock costs about one lane — and
	// bandwidth as lanes/16. Resizing takes 1 µs.
	MechVWL
	// MechDVFS scales voltage and frequency. Modes deliver 100/80/50/14%
	// bandwidth at 100/70/35/8% power. SERDES latency grows as the I/O
	// clock slows. A full transition takes up to 3 µs (half width, scale
	// bundle A, scale bundle B, restore width).
	MechDVFS
)

// String implements fmt.Stringer.
func (m Mechanism) String() string {
	switch m {
	case MechNone:
		return "none"
	case MechVWL:
		return "VWL"
	case MechDVFS:
		return "DVFS"
	default:
		return fmt.Sprintf("Mechanism(%d)", int(m))
	}
}

// Physical constants of the modelled links.
const (
	// LaneRateGbps is the per-lane signalling rate.
	LaneRateGbps = 12.5
	// LanesPerLink is the full width of a unidirectional link.
	LanesPerLink = 16
	// BufferEntries is the link controller buffer size (§III-B).
	BufferEntries = 128
)

// FlitTimeFull is the time to serialize one 16 B flit at full width:
// 16 B × 8 / (16 lanes × 12.5 Gbps) = 0.64 ns.
var FlitTimeFull = sim.FromNanos(0.64)

// SERDESBase is the serialization/deserialization latency at full speed.
var SERDESBase = sim.FromNanos(3.2)

// RouterCycle is the pipelined router clock period (the minimum flit
// transfer time) and RouterCycles its pipeline depth.
var RouterCycle = sim.FromNanos(0.64)

// RouterCycles is the router pipeline latency in cycles.
const RouterCycles = 4

// RouterLatency is the per-hop routing latency.
func RouterLatency() sim.Duration { return RouterCycles * RouterCycle }

// NumBWModes is the number of bandwidth modes for VWL and DVFS (mode 0 is
// always full power/bandwidth).
const NumBWModes = 4

// vwlLanes lists the active lane counts per VWL mode.
var vwlLanes = [NumBWModes]int{16, 8, 4, 1}

// dvfsBW and dvfsPower are the DVFS operating points from [16]: each
// successive mode gives roughly equal total-link-power steps.
var (
	dvfsBW    = [NumBWModes]float64{1.00, 0.80, 0.50, 0.14}
	dvfsPower = [NumBWModes]float64{1.00, 0.70, 0.35, 0.08}
)

// Transition latencies for bandwidth mode changes.
var (
	VWLTransition  = 1 * sim.Microsecond
	DVFSTransition = 3 * sim.Microsecond
)

// BWFactor returns the bandwidth fraction of mode m under mechanism mech.
func BWFactor(mech Mechanism, m int) float64 {
	switch mech {
	case MechNone:
		return 1
	case MechVWL:
		return float64(vwlLanes[m]) / float64(LanesPerLink)
	case MechDVFS:
		return dvfsBW[m]
	default:
		panic("link: unknown mechanism")
	}
}

// PowerFactor returns the power fraction of mode m under mechanism mech.
func PowerFactor(mech Mechanism, m int) float64 {
	switch mech {
	case MechNone:
		return 1
	case MechVWL:
		return float64(vwlLanes[m]+1) / float64(LanesPerLink+1)
	case MechDVFS:
		return dvfsPower[m]
	default:
		panic("link: unknown mechanism")
	}
}

// Lanes returns the active lane count of VWL mode m (16 for other
// mechanisms' mode 0 semantics; used for Fig. 13 reporting).
func Lanes(m int) int { return vwlLanes[m] }

// SERDESLatency returns the SERDES latency at mode m: constant for VWL
// (lanes change, clock does not), scaled with the slower I/O clock under
// DVFS — the DVFS drawback the paper highlights.
func SERDESLatency(mech Mechanism, m int) sim.Duration {
	if mech == MechDVFS {
		return sim.Duration(float64(SERDESBase) / dvfsBW[m])
	}
	return SERDESBase
}

// serTable is a mechanism's per-mode packet timing: how long each of the
// protocol's two packet sizes (1-flit headers, 5-flit data) occupies the
// link, and the SERDES pipeline latency paid once per packet on top. It
// is the one place the serialization arithmetic lives; the real link and
// its delay monitors both read it, so a packet's virtual service time in
// mode m is exactly the time the link takes to send it in mode m.
type serTable struct {
	short  [NumBWModes]sim.Duration // 1-flit packets
	long   [NumBWModes]sim.Duration // 5-flit packets
	serdes [NumBWModes]sim.Duration
}

// serTables holds one serTable per mechanism, built once.
var serTables = [...]serTable{
	MechNone: newSerTable(MechNone),
	MechVWL:  newSerTable(MechVWL),
	MechDVFS: newSerTable(MechDVFS),
}

func newSerTable(mech Mechanism) serTable {
	var t serTable
	for m := 0; m < NumBWModes; m++ {
		bw := BWFactor(mech, m)
		occupancy := func(flits int64) sim.Duration {
			return sim.Duration(float64(int64(FlitTimeFull)*flits)/bw + 0.5)
		}
		t.short[m] = occupancy(1)
		t.long[m] = occupancy(1 + packet.LineBytes/packet.FlitBytes)
		t.serdes[m] = SERDESLatency(mech, m)
	}
	return t
}

// svc returns the occupancy table for packets of the given flit count.
// Every packet kind is one or five flits.
func (t *serTable) svc(flits int) *[NumBWModes]sim.Duration {
	if flits == 1 {
		return &t.short
	}
	return &t.long
}

// TransitionLatency returns how long a change to/from mode m takes.
func TransitionLatency(mech Mechanism) sim.Duration {
	switch mech {
	case MechVWL:
		return VWLTransition
	case MechDVFS:
		return DVFSTransition
	default:
		return 0
	}
}

// NumModes returns how many bandwidth modes mech offers (1 for MechNone).
func NumModes(mech Mechanism) int {
	if mech == MechNone {
		return 1
	}
	return NumBWModes
}

// Rapid on/off parameters (§IV-A).
const (
	// NumROOModes counts the idleness-threshold modes; the last (2048 ns)
	// is the "full power" ROO mode — even it turns the link off after
	// 2048 ns of idleness.
	NumROOModes = 4
	// ROOFullMode is the index of the least aggressive (2048 ns) mode.
	ROOFullMode = NumROOModes - 1
	// OffPowerFraction is the off-state power relative to full power.
	OffPowerFraction = 0.01
)

// ROOThresholds are the idleness thresholds per ROO mode.
var ROOThresholds = [NumROOModes]sim.Duration{
	32 * sim.Nanosecond,
	128 * sim.Nanosecond,
	512 * sim.Nanosecond,
	2048 * sim.Nanosecond,
}

// Wakeup latencies evaluated in the paper.
var (
	WakeupDefault     = 14 * sim.Nanosecond
	WakeupSensitivity = 20 * sim.Nanosecond
)
