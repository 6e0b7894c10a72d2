package multicore

import (
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/program"
	"github.com/noreba-sim/noreba/internal/workloads"
)

func inputFor(t *testing.T, name string, scale int) (CoreInput, *emulator.Trace) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emulator.New(res.Image).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return CoreInput{Source: tr.Source(), Meta: res.Meta}, tr
}

func coreCfg(policy pipeline.PolicyKind) pipeline.Config {
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = policy
	return cfg
}

func TestSharedLLCContention(t *testing.T) {
	// Two memory-hungry kernels sharing a 1MB L3 must miss it more than
	// each running with a private L3.
	in0, _ := inputFor(t, "mcf", 200)
	in1, _ := inputFor(t, "omnetpp", 200)
	inputs := []CoreInput{in0, in1}

	private, err := New(Config{Core: coreCfg(pipeline.Noreba), AddressSpaceStride: 1 << 32}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	statsPriv, err := private.Run()
	if err != nil {
		t.Fatal(err)
	}

	in20, tr0 := inputFor(t, "mcf", 200)
	in21, tr1 := inputFor(t, "omnetpp", 200)
	inputs2 := []CoreInput{in20, in21}
	traces2 := []*emulator.Trace{tr0, tr1}
	shared, err := New(Config{Core: coreCfg(pipeline.Noreba), ShareLLC: true, AddressSpaceStride: 1 << 32}, inputs2)
	if err != nil {
		t.Fatal(err)
	}
	statsShared, err := shared.Run()
	if err != nil {
		t.Fatal(err)
	}

	var privMiss, sharedMiss int64
	for i := range statsPriv {
		privMiss += statsPriv[i].MemAccesses
		sharedMiss += statsShared[i].MemAccesses
	}
	if sharedMiss < privMiss {
		t.Errorf("shared LLC produced fewer memory accesses (%d) than private (%d)", sharedMiss, privMiss)
	}
	// Conservation still holds per core.
	for i, st := range statsShared {
		want := int64(traces2[i].Len()) - traces2[i].Setup
		if st.Committed != want {
			t.Errorf("core %d committed %d, want %d", i, st.Committed, want)
		}
	}
}

// barrierProgram builds a program with `phases` fenced phases whose
// per-phase work differs by core (the `work` parameter), so an unsynced run
// would drift apart.
func barrierProgram(t *testing.T, name string, phases, work int) CoreInput {
	t.Helper()
	b := program.NewBuilder(name)
	b.Label("entry").Li(isa.A0, int64(phases))
	b.Label("phase")
	for i := 0; i < work; i++ {
		b.Addi(isa.A2, isa.A2, 1)
	}
	b.Fence()
	b.Addi(isa.A0, isa.A0, -1).Bnez(isa.A0, "phase")
	b.Label("done").Halt()
	res, err := compiler.Compile(b.MustBuild(), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emulator.New(res.Image).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return CoreInput{Source: tr.Source(), Meta: res.Meta}
}

func TestBarriersKeepCoresInStep(t *testing.T) {
	// Core 0 does 5x the per-phase work of core 1; with barriers enabled,
	// neither core may get a whole barrier ahead.
	inputs := []CoreInput{
		barrierProgram(t, "heavy", 20, 50),
		barrierProgram(t, "light", 20, 10),
	}
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba), Barriers: true}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sys.MaxBarrierSkew() > 1 {
		t.Errorf("barrier skew %d; cores drifted apart", sys.MaxBarrierSkew())
	}
	// The light core must have been held back to roughly the heavy core's
	// pace: its cycle count approaches the heavy one's.
	heavy, light := stats[0].Cycles, stats[1].Cycles
	if light*10 < heavy*9 {
		t.Errorf("light core (%d cycles) not held back to heavy core's pace (%d)", light, heavy)
	}
	for i, st := range stats {
		if st.FencesCommitted != 20 {
			t.Errorf("core %d committed %d fences, want 20", i, st.FencesCommitted)
		}
	}
}

func TestBarrierCountMismatchRejected(t *testing.T) {
	inputs := []CoreInput{
		barrierProgram(t, "a", 3, 5),
		barrierProgram(t, "b", 4, 5),
	}
	if _, err := New(Config{Core: coreCfg(pipeline.Noreba), Barriers: true}, inputs); err == nil {
		t.Error("mismatched fence counts accepted")
	}
}

func TestUnsyncedFencesRunFree(t *testing.T) {
	// Without Barriers, each core's fences retire independently and the
	// light core finishes much earlier.
	inputs := []CoreInput{
		barrierProgram(t, "heavy", 20, 50),
		barrierProgram(t, "light", 20, 10),
	}
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats[1].Cycles >= stats[0].Cycles {
		t.Errorf("light core (%d cycles) should finish before heavy (%d) without barriers",
			stats[1].Cycles, stats[0].Cycles)
	}
}

func TestSingleCoreMatchesPipelineRun(t *testing.T) {
	// A one-core system must agree with Core.Run exactly.
	in, _ := inputFor(t, "dijkstra", 20)
	sys, err := New(Config{Core: coreCfg(pipeline.Noreba)}, []CoreInput{in})
	if err != nil {
		t.Fatal(err)
	}
	sysStats, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	in2, tr2 := inputFor(t, "dijkstra", 20)
	direct, err := pipeline.NewCore(coreCfg(pipeline.Noreba), tr2, in2.Meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	if sysStats[0].Cycles != direct.Cycles {
		t.Errorf("system run %d cycles, direct run %d", sysStats[0].Cycles, direct.Cycles)
	}
}

func TestEmptySystemRejected(t *testing.T) {
	if _, err := New(Config{Core: coreCfg(pipeline.InOrder)}, nil); err == nil {
		t.Error("empty system accepted")
	}
}

// TestSanitizedSystemClean: the whole barrier-synchronised system runs
// violation-free with the pipeline sanitizer on, and Run surfaces a core's
// sanity error instead of finishing.
func TestSanitizedSystemClean(t *testing.T) {
	inputs := []CoreInput{
		barrierProgram(t, "a", 8, 30),
		barrierProgram(t, "b", 8, 12),
	}
	cfg := coreCfg(pipeline.Noreba)
	cfg.Sanitize = true
	sys, err := New(Config{Core: cfg, Barriers: true, ShareLLC: true}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("sanitized multicore run failed: %v", err)
	}
}

// panicNext is a source whose by-value Next must never be reached: the
// pipeline and every wrapper deliver through NextInto. Embedding promotes
// the inner source's NextInto, Name, Err and Counts.
type panicNext struct{ emulator.TraceSource }

func (panicNext) Next() (emulator.DynInst, bool) {
	panic("Next called: delivery fell back to the by-value path")
}

// TestOffsetSourceDeliversThroughNextInto: offsetSource forwards NextInto to
// its source, never the by-value Next, shifts exactly the memory addresses
// in the consumer's own record, and leaves the shared trace it reads from
// untouched while a pipeline core drains it.
func TestOffsetSourceDeliversThroughNextInto(t *testing.T) {
	const delta = 1 << 32
	in, tr := inputFor(t, "mcf", 200)
	orig := append([]emulator.DynInst(nil), tr.Insts...)

	src := &offsetSource{src: panicNext{tr.Source()}, delta: delta}
	var d emulator.DynInst
	for i := 0; src.NextInto(&d); i++ {
		want := orig[i]
		if want.Inst.Op.IsMem() {
			want.Addr += delta
		}
		if d != want {
			t.Fatalf("record %d: got %+v, want %+v", i, d, want)
		}
	}
	if src.Counts().Insts != int64(len(orig)) {
		t.Fatalf("delivered %d records, want %d", src.Counts().Insts, len(orig))
	}

	core := pipeline.NewCoreFromSource(coreCfg(pipeline.Noreba), &offsetSource{src: panicNext{tr.Source()}, delta: delta}, in.Meta)
	st, err := core.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Committed == 0 {
		t.Fatal("core committed nothing")
	}
	for i := range orig {
		if tr.Insts[i] != orig[i] {
			t.Fatalf("shared trace record %d mutated: %+v, was %+v", i, tr.Insts[i], orig[i])
		}
	}
}
