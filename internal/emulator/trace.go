package emulator

import (
	"github.com/noreba-sim/noreba/internal/isa"
)

// DynInst is one correct-path dynamic instruction: the unit the cycle-level
// pipeline model replays.
type DynInst struct {
	Seq    int64    // dynamic sequence number
	PC     int      // instruction address (index into the image)
	Inst   isa.Inst // decoded instruction
	Taken  bool     // control-flow outcome for branches/jumps
	NextPC int      // PC of the next dynamic instruction
	Addr   int64    // effective address for memory operations
	Trap   bool     // the access raised a memory exception
}

// Trace is a correct-path dynamic instruction stream plus summary counts.
type Trace struct {
	Name  string
	Insts []DynInst

	// Counts over the dynamic stream.
	Branches int64 // conditional branches
	Loads    int64
	Stores   int64
	Setup    int64 // setBranchId + setDependency occurrences
}

// Run executes until halt, a memory exception, or maxInsts dynamic
// instructions, and returns the trace. On a memory exception the trace
// includes the faulting instruction (Trap set) and the error is returned.
//
// Run materializes the whole stream; callers that only need to consume the
// stream once (the pipeline's sliding window) should use NewSource instead,
// which runs in O(1) memory.
func (m *Machine) Run(maxInsts int64) (*Trace, error) {
	return Materialize(NewSource(m, maxInsts))
}

func (tr *Trace) count(d *DynInst) {
	switch {
	case d.Inst.Op.IsCondBranch():
		tr.Branches++
	case d.Inst.Op.IsLoad():
		tr.Loads++
	case d.Inst.Op.IsStore():
		tr.Stores++
	case d.Inst.Op.IsSetup():
		tr.Setup++
	}
}

// Len returns the number of dynamic instructions in the trace.
func (tr *Trace) Len() int { return len(tr.Insts) }
