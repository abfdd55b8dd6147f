package isa

import "fmt"

// Port identifies an execution port of the out-of-order backend.
type Port uint8

// PortMask is a bit set of ports a µop may issue to.
type PortMask uint16

// Execution ports, named after the Intel convention used for Nehalem and
// Sandy Bridge (Table 1's machines).
const (
	P0 Port = iota // ALU + FP multiply (+ shifts)
	P1             // ALU + FP add (+ imul, lea)
	P2             // load (SNB: load/store-address)
	P3             // store address (SNB: load/store-address)
	P4             // store data
	P5             // ALU + branch
	NumPorts
)

// Mask returns the single-port mask for p.
func (p Port) Mask() PortMask { return 1 << p }

// Has reports whether the mask contains p.
func (m PortMask) Has(p Port) bool { return m&(1<<p) != 0 }

// Count returns the number of ports in the mask.
func (m PortMask) Count() int {
	n := 0
	for p := Port(0); p < NumPorts; p++ {
		if m.Has(p) {
			n++
		}
	}
	return n
}

// UopRole classifies a µop for the pipeline and memory models.
type UopRole uint8

const (
	RoleCompute UopRole = iota
	RoleLoad
	RoleStoreAddr
	RoleStoreData
	RoleBranch
)

// Uop is one micro-operation of a decoded instruction.
type Uop struct {
	Role UopRole
	// Ports the µop may execute on.
	Ports PortMask
	// Lat is the execution latency in core cycles. For loads this is the
	// address-generation part only; the memory hierarchy adds the access
	// latency (L1 hit latency and beyond).
	Lat int
	// Fused marks the second µop of a micro-fused pair (load+op); it does
	// not consume a frontend issue slot.
	Fused bool
}

// Arch describes the out-of-order core pipeline of a microarchitecture.
// Cache geometry and frequencies live in internal/machine; Arch covers only
// what the core timing model needs.
type Arch struct {
	Name string
	// IssueWidth is the number of (fused-domain) µops the frontend can
	// rename/issue per cycle.
	IssueWidth int
	// RetireWidth is the number of µops retired per cycle.
	RetireWidth int
	// ROBSize bounds in-flight µops.
	ROBSize int
	// LoadBuffers / StoreBuffers bound in-flight memory operations.
	LoadBuffers  int
	StoreBuffers int
	// BranchMissPenalty is the pipeline refill cost of a mispredicted
	// branch (paid once at loop exit under the loop predictor model).
	BranchMissPenalty int
	// TwoLoadPorts is true on Sandy Bridge: P2 and P3 both serve loads,
	// doubling L1 load bandwidth (one of the headline differences the
	// paper's Sandy Bridge figures 17-18 benefit from).
	TwoLoadPorts bool
	// TakenBranchBubble is the frontend bubble after a taken branch when
	// the loop does NOT fit the loop-stream detector: the issue group
	// ends and this many cycles are lost before fetch resumes. This is
	// the loop overhead that unrolling trades against code footprint
	// (Figs. 5, 11, 12). Sandy Bridge's µop cache hides the bubble.
	TakenBranchBubble int
	// LSDSize is the loop-stream detector capacity in fused-domain µops:
	// loops whose bodies fit are replayed without the fetch bubble.
	LSDSize int

	// FP latencies (per Agner Fog's tables, rounded).
	FPAddLat   int
	FPMulLatSS int // single precision multiply
	FPMulLatSD int // double precision multiply
	IMulLat    int
}

// Nehalem returns the core description of the Xeon X5650/X7550 class
// machines in Table 1.
func Nehalem() *Arch {
	return &Arch{
		Name:              "nehalem",
		IssueWidth:        4,
		RetireWidth:       4,
		ROBSize:           128,
		LoadBuffers:       48,
		StoreBuffers:      32,
		BranchMissPenalty: 17,
		TwoLoadPorts:      false,
		TakenBranchBubble: 1,
		LSDSize:           28,
		FPAddLat:          3,
		FPMulLatSS:        4,
		FPMulLatSD:        5,
		IMulLat:           3,
	}
}

// SandyBridge returns the core description of the Xeon E31240 in Table 1.
func SandyBridge() *Arch {
	return &Arch{
		Name:              "sandybridge",
		IssueWidth:        4,
		RetireWidth:       4,
		ROBSize:           168,
		LoadBuffers:       64,
		StoreBuffers:      36,
		BranchMissPenalty: 15,
		TwoLoadPorts:      true,
		TakenBranchBubble: 0,
		LSDSize:           28,
		FPAddLat:          3,
		FPMulLatSS:        5,
		FPMulLatSD:        5,
		IMulLat:           3,
	}
}

func (a *Arch) loadPorts() PortMask {
	if a.TwoLoadPorts {
		return P2.Mask() | P3.Mask()
	}
	return P2.Mask()
}

func (a *Arch) storeAddrPorts() PortMask {
	if a.TwoLoadPorts {
		return P2.Mask() | P3.Mask()
	}
	return P3.Mask()
}

func (a *Arch) aluPorts() PortMask { return P0.Mask() | P1.Mask() | P5.Mask() }

// computeUop returns the (ports, latency) of the computation part of op.
func (a *Arch) computeUop(op Op) (PortMask, int, error) {
	switch op {
	case ADDSS, ADDSD, ADDPS, ADDPD:
		return P1.Mask(), a.FPAddLat, nil
	case MULSS, MULPS:
		return P0.Mask(), a.FPMulLatSS, nil
	case MULSD, MULPD:
		return P0.Mask(), a.FPMulLatSD, nil
	case XORPS:
		return P0.Mask() | P1.Mask() | P5.Mask(), 1, nil
	case MOVSS, MOVSD, MOVAPS, MOVAPD, MOVUPS, MOVUPD:
		// Register-to-register SSE move.
		return P0.Mask() | P1.Mask() | P5.Mask(), 1, nil
	case MOV, ADD, SUB, INC, DEC, XOR, AND, CMP, TEST, NOP, RET:
		return a.aluPorts(), 1, nil
	case LEA:
		return P0.Mask() | P1.Mask(), 1, nil
	case SHL:
		return P0.Mask() | P5.Mask(), 1, nil
	case IMUL:
		return P1.Mask(), a.IMulLat, nil
	}
	return 0, 0, fmt.Errorf("isa: no compute µop spec for %s on %s", op, a.Name)
}

// uopCount is how many µops Decode appends for inst, whatever the arch:
// two for a store and for a load that computes, one otherwise.
func uopCount(inst *Inst) int {
	if inst.Op.IsBranch() {
		return 1
	}
	if _, isStore, hasMem := inst.MemOperand(); hasMem && (isStore || !inst.Op.IsMove()) {
		return 2
	}
	return 1
}

// Decode appends the µop decomposition of inst to buf and returns it; it
// appends uopCount(inst) µops. Shapes:
//   - load (mem source):   load µop (+ micro-fused compute µop for
//     arithmetic; pure moves are a single load µop)
//   - store (mem dest):    store-address µop + store-data µop
//   - register/immediate:  single compute µop
//   - conditional branch:  single branch µop on P5
func (a *Arch) Decode(inst *Inst, buf []Uop) ([]Uop, error) {
	op := inst.Op
	if op.IsBranch() {
		return append(buf, Uop{Role: RoleBranch, Ports: P5.Mask(), Lat: 1}), nil
	}
	mem, isStore, hasMem := inst.MemOperand()
	_ = mem
	switch {
	case hasMem && !isStore:
		buf = append(buf, Uop{Role: RoleLoad, Ports: a.loadPorts(), Lat: 0})
		if !op.IsMove() {
			ports, lat, err := a.computeUop(op)
			if err != nil {
				return nil, err
			}
			buf = append(buf, Uop{Role: RoleCompute, Ports: ports, Lat: lat, Fused: true})
		}
		return buf, nil
	case hasMem && isStore:
		buf = append(buf,
			Uop{Role: RoleStoreAddr, Ports: a.storeAddrPorts(), Lat: 1},
			Uop{Role: RoleStoreData, Ports: P4.Mask(), Lat: 1, Fused: true})
		return buf, nil
	default:
		ports, lat, err := a.computeUop(op)
		if err != nil {
			return nil, err
		}
		return append(buf, Uop{Role: RoleCompute, Ports: ports, Lat: lat}), nil
	}
}
