package sampling

import (
	"context"
	"testing"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// panicNext is a source whose by-value Next must never be reached: the
// pipeline and every wrapper deliver through NextInto. Embedding promotes
// the inner source's NextInto, Name, Err and Counts.
type panicNext struct{ emulator.TraceSource }

func (panicNext) Next() (emulator.DynInst, bool) {
	panic("Next called: delivery fell back to the by-value path")
}

// TestCancellableSourceDelivery: cancellableSource forwards NextInto to its
// source, never the by-value Next, so a pipeline core drains it to the same
// commit count as the source itself; once its context is cancelled it ends
// the stream at the next check, well before the source runs dry.
func TestCancellableSourceDelivery(t *testing.T) {
	res := compileWorkload(t, "dijkstra", 4)
	live := func() emulator.TraceSource { return emulator.NewSource(emulator.New(res.Image), 1<<20) }
	ref := live()
	var d emulator.DynInst
	for ref.NextInto(&d) {
	}
	total := ref.Counts()
	if total.Insts <= 4096 {
		t.Fatalf("stream of %d records is too short to observe cancellation", total.Insts)
	}

	src := &cancellableSource{src: panicNext{live()}, ctx: context.Background()}
	st, err := pipeline.NewCoreFromSource(pipeline.SkylakeConfig(), src, res.Meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	if src.Counts() != total {
		t.Errorf("drained counts %+v, want %+v", src.Counts(), total)
	}
	if want := total.Insts - total.Setup; st.Committed != want {
		t.Errorf("core committed %d, want %d", st.Committed, want)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	src = &cancellableSource{src: live(), ctx: ctx}
	n := 0
	for src.NextInto(&d) {
		n++
	}
	if n >= 4096 {
		t.Errorf("cancelled source delivered %d of %d records, want < 4096", n, total.Insts)
	}
}
