package sampling

import (
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
)

// Interval is one fixed-length slice of the dynamic instruction stream with
// its basic-block vector: how many instructions executed under each
// basic-block leader during the interval. The BBV is the SimPoint phase
// fingerprint — intervals executing the same code mix cluster together
// regardless of where in the run they occur.
type Interval struct {
	// Index is the interval's position in stream order.
	Index int
	// Start is the dynamic-instruction index of the interval's first
	// instruction (setup instructions included in the numbering).
	Start int64
	// Insts is the number of instructions delivered in the interval; every
	// interval but the last holds exactly the profile's interval length.
	Insts int64
	// Setup counts setBranchId/setDependency instructions, which the
	// pipeline retires at fetch without entering the committed-instruction
	// count — Committed() converts interval lengths into commit units.
	Setup int64
	// Traps counts instructions delivered with a pending memory exception
	// (at most one, stream-final).
	Traps int64
	// BBV maps basic-block leader PC → instructions executed in that block
	// during the interval.
	BBV map[int]int64
}

// Committed returns the interval's length in committed-instruction units:
// everything delivered except setup instructions, which never enter
// pipeline.Stats.Committed.
func (iv *Interval) Committed() int64 { return iv.Insts - iv.Setup }

// Profile is the result of the functional profiling pass: the stream cut
// into intervals, each with its basic-block vector.
type Profile struct {
	// Name identifies the profiled program.
	Name string
	// IntervalLen is the interval length the stream was cut into.
	IntervalLen int64
	// TotalInsts is the delivered stream length (setup included).
	TotalInsts int64
	// TotalSetup is the stream-wide setup-instruction count.
	TotalSetup int64
	// Intervals holds the profiled intervals in stream order; the last may
	// be shorter than IntervalLen.
	Intervals []Interval
	// Err is the stream's terminal error (a memory exception), if any.
	Err error
}

// TotalCommitted returns the stream length in committed-instruction units.
func (p *Profile) TotalCommitted() int64 { return p.TotalInsts - p.TotalSetup }

// BuildProfile drains a dynamic instruction stream, bucketing it into
// fixed-length intervals and accumulating each interval's basic-block
// vector. A basic block is led by the first instruction after a control
// transfer (conditional branch, jal, jalr), so the vector dimension is the
// set of block leaders actually executed — no static CFG is needed.
func BuildProfile(src emulator.TraceSource, intervalLen int64) *Profile {
	if intervalLen <= 0 {
		intervalLen = DefaultIntervalLen
	}
	p := &Profile{Name: src.Name(), IntervalLen: intervalLen}
	var cur *Interval
	leader := -1
	var d emulator.DynInst
	for src.NextInto(&d) {
		if cur == nil || cur.Insts == intervalLen {
			p.Intervals = append(p.Intervals, Interval{
				Index: len(p.Intervals),
				Start: p.TotalInsts,
				BBV:   map[int]int64{},
			})
			cur = &p.Intervals[len(p.Intervals)-1]
		}
		if leader < 0 {
			leader = d.PC
		}
		cur.BBV[leader]++
		cur.Insts++
		p.TotalInsts++
		switch {
		case d.Inst.Op.IsSetup():
			cur.Setup++
			p.TotalSetup++
		case d.Trap:
			cur.Traps++
		}
		if d.Inst.Op.IsCondBranch() || d.Inst.Op == isa.OpJal || d.Inst.Op == isa.OpJalr {
			leader = -1 // next instruction leads a new basic block
		}
	}
	p.Err = src.Err()
	return p
}

// vectors converts the profile's BBVs into dense, L1-normalised vectors over
// the union block dictionary, in a deterministic dimension order, ready for
// k-means. Normalisation makes the short final interval comparable to full
// ones: phase similarity is about the code mix, not the interval length.
func (p *Profile) vectors() [][]float64 {
	dims := map[int]int{}
	var order []int
	for i := range p.Intervals {
		for pc := range p.Intervals[i].BBV {
			if _, ok := dims[pc]; !ok {
				dims[pc] = 0
				order = append(order, pc)
			}
		}
	}
	// Deterministic dimension order: ascending leader PC.
	sortInts(order)
	for i, pc := range order {
		dims[pc] = i
	}
	vecs := make([][]float64, len(p.Intervals))
	for i := range p.Intervals {
		iv := &p.Intervals[i]
		v := make([]float64, len(order))
		if iv.Insts > 0 {
			inv := 1 / float64(iv.Insts)
			for pc, n := range iv.BBV {
				v[dims[pc]] = float64(n) * inv
			}
		}
		vecs[i] = v
	}
	return vecs
}

// sortInts is an insertion sort: the dictionary is small (hundreds of block
// leaders at most) and this keeps the package stdlib-free beyond emulator
// and isa. For larger dictionaries a pdqsort would win; profiling shows the
// clustering pass is dominated by distance computation, not this sort.
func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
