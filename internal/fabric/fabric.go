// Package fabric models the DynaSpAM reconfigurable spatial fabric (§3.2,
// Figure 4): an acyclically connected grid organized as stripes, where each
// stripe mirrors the host pipeline's functional-unit mix, carries values
// forward through per-FU pass registers, receives live-ins over a global bus
// into input FIFOs, and broadcasts live-outs back to the host.
//
// A Config is the product of the dynamic mapping phase: every trace
// instruction placed on a PE, with each operand's source (live-in port or
// producer PE) and the pass-register route it travels. Evaluate runs one
// invocation of a Config functionally and produces the timing, memory
// activity, and live-out values the host pipeline's side re-order buffer
// (ROB') needs.
package fabric

import (
	"fmt"

	"dynaspam/internal/isa"
)

// Geometry describes a fabric instance.
type Geometry struct {
	// Stripes is the number of stripes.
	Stripes int
	// FUsPerStripe gives the PE mix per stripe (mirrors the host's
	// execution units in the paper's evaluation).
	FUsPerStripe [isa.NumFUTypes]int
	// PassRegsPerFU is the number of pass registers attached to each PE;
	// the product with PEs-per-stripe bounds how many values can be routed
	// through a stripe.
	PassRegsPerFU int
	// LiveInFIFOs / LiveOutFIFOs bound how many live-in and live-out
	// registers a mapped trace may have.
	LiveInFIFOs  int
	LiveOutFIFOs int
	// FIFODepth is the number of entries per FIFO; it bounds concurrently
	// in-flight invocations (pipelining depth).
	FIFODepth int
}

// DefaultGeometry returns the Table 4 fabric: 16 stripes with the host's FU
// mix per stripe, 3 pass registers per FU, 16 live-in and live-out FIFOs of
// 8 entries.
func DefaultGeometry() Geometry {
	var fu [isa.NumFUTypes]int
	fu[isa.FUIntALU] = 4
	fu[isa.FUIntMulDiv] = 1
	fu[isa.FUFPALU] = 4
	fu[isa.FUFPMulDiv] = 1
	fu[isa.FULdSt] = 2
	return Geometry{
		Stripes:       16,
		FUsPerStripe:  fu,
		PassRegsPerFU: 3,
		LiveInFIFOs:   16,
		LiveOutFIFOs:  16,
		FIFODepth:     8,
	}
}

// PEsPerStripe returns the number of processing elements per stripe.
func (g Geometry) PEsPerStripe() int {
	n := 0
	for _, v := range g.FUsPerStripe {
		n += v
	}
	return n
}

// RouteCapacity returns the number of pass-register slots per stripe.
func (g Geometry) RouteCapacity() int { return g.PEsPerStripe() * g.PassRegsPerFU }

// InputPorts returns how many live-in operands a PE in the given stripe can
// receive in one invocation: PEs in the first stripe have two direct input
// ports; all others take a single live-in from the global bus (§2.2.1).
func (g Geometry) InputPorts(stripe int) int {
	if stripe == 0 {
		return 2
	}
	return 1
}

// Validate panics on degenerate geometry.
func (g Geometry) Validate() {
	if g.Stripes <= 0 || g.PassRegsPerFU < 0 || g.LiveInFIFOs <= 0 || g.LiveOutFIFOs <= 0 || g.FIFODepth <= 0 {
		panic(fmt.Sprintf("fabric: bad geometry %+v", g))
	}
	if g.PEsPerStripe() == 0 {
		panic("fabric: geometry has no PEs")
	}
}

// SrcKind tells where a mapped operand comes from.
type SrcKind uint8

const (
	// SrcNone marks an absent operand slot.
	SrcNone SrcKind = iota
	// SrcLiveIn reads an input FIFO over the global bus.
	SrcLiveIn
	// SrcProducer reads a value produced by an earlier trace instruction,
	// through pass registers.
	SrcProducer
)

// Operand is one mapped operand.
type Operand struct {
	Kind SrcKind
	// Index is the live-in index (SrcLiveIn) or producer trace index
	// (SrcProducer).
	Index int
	// Hops is the number of pass-register hops between producer stripe
	// and consumer stripe (consumer - producer - 1); each hop costs one
	// cycle.
	Hops int
	// Reused marks an operand satisfied from the ReuseSet: its route
	// already existed, so mapping allocated no new datapath for it.
	Reused bool
}

// MappedInst is one trace instruction placed on a PE.
type MappedInst struct {
	PC     int
	Inst   isa.Inst
	Stripe int
	PE     int // index within the stripe's PE array
	Src    [2]Operand
	// ExpectTaken records the trace's path through this branch.
	ExpectTaken bool
}

// Config is a complete fabric configuration for one trace: the output of the
// dynamic mapping phase, stored in the configuration cache.
type Config struct {
	// StartPC and ExitPC delimit the trace: instructions from StartPC
	// along the recorded path, with fetch resuming at ExitPC.
	StartPC int
	ExitPC  int
	Insts   []MappedInst
	// LiveIns lists the architectural registers the trace reads before
	// defining; LiveOuts the registers it defines.
	LiveIns  []isa.Reg
	LiveOuts []isa.Reg
	// LiveOutProducer gives, per live-out, the trace index of its last
	// definition.
	LiveOutProducer []int
	// StripesUsed is the number of stripes the mapping occupies.
	StripesUsed int
	// DatapathSlots is the total number of pass-register slots the
	// mapping allocated (routing cost; feeds the energy model).
	DatapathSlots int
}

// ActivePEs returns how many PEs the configuration powers on; the rest are
// power-gated (§3.2).
func (c *Config) ActivePEs() int { return len(c.Insts) }

// Validate checks structural invariants of a configuration against a
// geometry: placements in range, operands referring backwards, producer
// stripes strictly earlier than consumers, FIFO limits respected.
func (c *Config) Validate(g Geometry) error {
	if len(c.LiveIns) > g.LiveInFIFOs {
		return fmt.Errorf("fabric: %d live-ins exceed %d FIFOs", len(c.LiveIns), g.LiveInFIFOs)
	}
	if len(c.LiveOuts) > g.LiveOutFIFOs {
		return fmt.Errorf("fabric: %d live-outs exceed %d FIFOs", len(c.LiveOuts), g.LiveOutFIFOs)
	}
	if len(c.LiveOuts) != len(c.LiveOutProducer) {
		return fmt.Errorf("fabric: live-out/producer length mismatch")
	}
	peUsed := make([]bool, g.Stripes*g.PEsPerStripe())
	for i := range c.Insts {
		mi := &c.Insts[i]
		if mi.Stripe < 0 || mi.Stripe >= g.Stripes {
			return fmt.Errorf("fabric: inst %d stripe %d out of range", i, mi.Stripe)
		}
		if mi.PE < 0 || mi.PE >= g.PEsPerStripe() {
			return fmt.Errorf("fabric: inst %d PE %d out of range", i, mi.PE)
		}
		key := mi.Stripe*g.PEsPerStripe() + mi.PE
		if peUsed[key] {
			return fmt.Errorf("fabric: inst %d double-books PE [%d %d]", i, mi.Stripe, mi.PE)
		}
		peUsed[key] = true
		liveIns := 0
		for s := 0; s < 2; s++ {
			op := mi.Src[s]
			switch op.Kind {
			case SrcNone:
			case SrcLiveIn:
				liveIns++
				if op.Index < 0 || op.Index >= len(c.LiveIns) {
					return fmt.Errorf("fabric: inst %d live-in index %d out of range", i, op.Index)
				}
			case SrcProducer:
				if op.Index < 0 || op.Index >= i {
					return fmt.Errorf("fabric: inst %d producer %d not earlier", i, op.Index)
				}
				p := &c.Insts[op.Index]
				if p.Stripe >= mi.Stripe {
					return fmt.Errorf("fabric: inst %d consumes from stripe %d at stripe %d (acyclicity)", i, p.Stripe, mi.Stripe)
				}
				if want := mi.Stripe - p.Stripe - 1; op.Hops != want {
					return fmt.Errorf("fabric: inst %d hops %d, want %d", i, op.Hops, want)
				}
			default:
				return fmt.Errorf("fabric: inst %d bad operand kind %d", i, op.Kind)
			}
		}
		if liveIns > g.InputPorts(mi.Stripe) {
			return fmt.Errorf("fabric: inst %d uses %d live-in ports at stripe %d (max %d)",
				i, liveIns, mi.Stripe, g.InputPorts(mi.Stripe))
		}
	}
	for i, p := range c.LiveOutProducer {
		if p < 0 || p >= len(c.Insts) {
			return fmt.Errorf("fabric: live-out %d producer %d out of range", i, p)
		}
	}
	return nil
}
