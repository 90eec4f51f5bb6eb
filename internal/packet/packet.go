// Package packet defines the traffic units of the memory network: flits
// and packets, per the HMC-style packet protocol the paper models. A read
// request packet is a single 16 B flit; write request and read response
// packets carry a 64 B line and are five flits each.
package packet

import (
	"fmt"

	"memnet/internal/sim"
)

// FlitBytes is the size of one flit, the minimum traffic flow unit.
const FlitBytes = 16

// LineBytes is the cache line size carried by data packets.
const LineBytes = 64

// Kind identifies a packet type.
type Kind uint8

const (
	// ReadReq is a read request travelling downstream (away from the
	// processor) on request links. One flit.
	ReadReq Kind = iota
	// WriteReq is a write request travelling downstream. Five flits
	// (header + 64 B line).
	WriteReq
	// ReadResp is a read response travelling upstream on response links.
	// Five flits.
	ReadResp
	// Control is management traffic (ISP gather/scatter messages,
	// leftover-AMS requests). Modelled as a single 64 B packet = 5 flits
	// when charged to links.
	Control
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case ReadReq:
		return "ReadReq"
	case WriteReq:
		return "WriteReq"
	case ReadResp:
		return "ReadResp"
	case Control:
		return "Control"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// kindFlits is the flit count per kind: read requests are one flit;
// write requests, read responses and management packets carry a 64 B
// line behind the header.
var kindFlits = [...]int{
	ReadReq:  1,
	WriteReq: 1 + LineBytes/FlitBytes,
	ReadResp: 1 + LineBytes/FlitBytes,
	Control:  1 + LineBytes/FlitBytes,
}

// Flits returns the number of flits a packet of this kind occupies.
func (k Kind) Flits() int {
	if int(k) >= len(kindFlits) {
		panic("packet: unknown kind")
	}
	return kindFlits[k]
}

// IsRead reports whether the packet belongs to a read transaction. The
// management policies only constrain read latency (writes are off the
// critical path), so this classification drives all latency accounting.
func (k Kind) IsRead() bool { return k == ReadReq || k == ReadResp }

// Downstream reports whether packets of this kind travel on request links
// (away from the processor) rather than response links.
func (k Kind) Downstream() bool { return k == ReadReq || k == WriteReq }

// ProcessorID is the module ID used for the processor endpoint.
const ProcessorID = -1

// Packet is one packet in flight. Packets are allocated once per memory
// transaction leg and mutated in place as they move hop to hop.
type Packet struct {
	ID   uint64
	Kind Kind
	// Src and Dst are module IDs; ProcessorID denotes the processor.
	Src, Dst int
	// Addr is the physical byte address of the access (used for vault
	// selection at the destination module).
	Addr uint64
	// Issued is when the originating transaction entered the network.
	Issued sim.Time
	// HopArrive is when the packet arrived at the current hop's link
	// controller queue (set by the network, used for per-link latency).
	HopArrive sim.Time
	// Hops counts link traversals so far (for Fig. 6).
	Hops int
	// Core identifies the issuing core for closed-loop accounting; -1
	// for traffic with no core attribution.
	Core int
}

// Flits returns the packet's size in flits.
func (p *Packet) Flits() int { return p.Kind.Flits() }

// Bytes returns the packet's size in bytes.
func (p *Packet) Bytes() int { return p.Flits() * FlitBytes }

// String implements fmt.Stringer for debugging.
func (p *Packet) String() string {
	return fmt.Sprintf("%s#%d %d->%d addr=%#x", p.Kind, p.ID, p.Src, p.Dst, p.Addr)
}
