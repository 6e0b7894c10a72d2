package tracefile_test

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/tracefile"
	"github.com/noreba-sim/noreba/internal/workgen"
	"github.com/noreba-sim/noreba/internal/workloads"
)

const rtBudget = 1 << 18

// simulate runs one pipeline core over src and returns its statistics.
func simulate(t *testing.T, src emulator.TraceSource, meta *compiler.Meta) *pipeline.Stats {
	t.Helper()
	cfg := pipeline.SkylakeConfig()
	cfg.Policy = pipeline.Noreba
	st, err := pipeline.NewCoreFromSource(cfg, src, meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// roundTrip asserts the ISSUE's interchange contract for one compiled
// program: emulate → write trace → replay through the reader must yield
// Stats bit-identical to driving the live emulator directly. Everything a
// Stats holds — cycle count, per-branch stall tables, window peaks — must
// survive the serialisation, or a trace-driven experiment would silently
// disagree with a live one.
func roundTrip(t *testing.T, res *compiler.Result) {
	live := simulate(t, emulator.NewSource(emulator.New(res.Image), rtBudget), res.Meta)

	var buf bytes.Buffer
	if err := tracefile.Write(&buf, emulator.NewSource(emulator.New(res.Image), rtBudget), res.Meta); err != nil {
		t.Fatalf("write: %v", err)
	}
	rd, err := tracefile.Open(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	replayed := simulate(t, rd, rd.Meta())

	if !reflect.DeepEqual(live, replayed) {
		t.Errorf("replayed Stats differ from live emulation\n live: %+v\nreplay: %+v", live, replayed)
	}
}

// TestRoundTripStatsWorkloads: every registered seed workload (curated AND
// pinned generated) replays from a trace file with bit-identical Stats.
func TestRoundTripStatsWorkloads(t *testing.T) {
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			scale := w.DefaultScale / 4
			if scale < 2 {
				scale = 2
			}
			res, err := compiler.Compile(w.Build(scale), compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, res)
		})
	}
}

// TestRoundTripStatsGenerated: ten fresh generator points (beyond the pinned
// registry entries) hold the same contract, so the interchange guarantee
// covers the character space, not just the curated corners.
func TestRoundTripStatsGenerated(t *testing.T) {
	for _, p := range workgen.Seeds(10) {
		p := p
		p.Iterations = 40
		t.Run(p.Name(), func(t *testing.T) {
			t.Parallel()
			prog, _, err := workgen.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			res, err := compiler.Compile(prog, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			roundTrip(t, res)
		})
	}
}

// panicNext is a source whose by-value Next must never be reached: the
// pipeline and every wrapper deliver through NextInto. Embedding promotes
// the inner source's NextInto, Name, Err and Counts.
type panicNext struct{ emulator.TraceSource }

func (panicNext) Next() (emulator.DynInst, bool) {
	panic("Next called: delivery fell back to the by-value path")
}

// TestRecorderDeliversThroughNextInto: a Recorder drained by a pipeline core
// forwards NextInto to its source, never the by-value Next, leaves the
// core's Stats unchanged and records the same bytes as Write.
func TestRecorderDeliversThroughNextInto(t *testing.T) {
	w, err := workloads.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(w.DefaultScale/4), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := func() emulator.TraceSource { return emulator.NewSource(emulator.New(res.Image), rtBudget) }

	var recorded bytes.Buffer
	rec, err := tracefile.NewRecorder(panicNext{live()}, &recorded, res.Meta)
	if err != nil {
		t.Fatal(err)
	}
	got := simulate(t, rec, res.Meta)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	if want := simulate(t, live(), res.Meta); !reflect.DeepEqual(got, want) {
		t.Errorf("recorded run Stats differ from a direct run\n got: %+v\nwant: %+v", got, want)
	}
	var written bytes.Buffer
	if err := tracefile.Write(&written, live(), res.Meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded.Bytes(), written.Bytes()) {
		t.Errorf("recorder wrote %d bytes, Write %d: streams differ", recorded.Len(), written.Len())
	}
}
