package emulator_test

import (
	"reflect"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// panicNext is a source whose by-value Next must never be reached: the
// pipeline and every wrapper deliver through NextInto. Embedding promotes
// the inner source's NextInto, Name, Err and Counts.
type panicNext struct{ emulator.TraceSource }

func (panicNext) Next() (emulator.DynInst, bool) {
	panic("Next called: delivery fell back to the by-value path")
}

// TestBusViewDeliversThroughNextInto: a bus pulls its source through
// NextInto, never the by-value Next, and a pipeline core drained from a
// view produces the Stats of a core drained from the source directly.
func TestBusViewDeliversThroughNextInto(t *testing.T) {
	w, err := workloads.ByName("CRC32")
	if err != nil {
		t.Fatal(err)
	}
	res, err := compiler.Compile(w.Build(w.DefaultScale/4), compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	live := func() emulator.TraceSource { return emulator.NewSource(emulator.New(res.Image), 1<<18) }
	run := func(src emulator.TraceSource) *pipeline.Stats {
		st, err := pipeline.NewCoreFromSource(pipeline.SkylakeConfig(), src, res.Meta).Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	view := emulator.NewBroadcast(panicNext{live()}, 0).View()
	if got, want := run(view), run(live()); !reflect.DeepEqual(got, want) {
		t.Errorf("bus-view Stats differ from a direct run\n got: %+v\nwant: %+v", got, want)
	}
}
