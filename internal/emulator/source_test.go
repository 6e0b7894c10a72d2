package emulator

import (
	"testing"

	"github.com/noreba-sim/noreba/internal/isa"
	"github.com/noreba-sim/noreba/internal/program"
)

func sourceTestImage(t *testing.T) *program.Image {
	t.Helper()
	b := program.NewBuilder("srctest")
	b.Label("entry").Li(isa.A0, 50).Li(isa.S0, 0x1000)
	b.Label("loop").
		Lw(isa.A1, isa.S0, 0).
		Addi(isa.A1, isa.A1, 1).
		Sw(isa.A1, isa.S0, 0).
		Addi(isa.A0, isa.A0, -1).
		Bnez(isa.A0, "loop")
	b.Label("done").Halt()
	b.Data(0x1000, 7)
	img, err := b.MustBuild().Layout()
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// TestSourceMatchesRun: every source kind — the live machine, a replayed
// materialized trace and a broadcast bus view — delivers exactly the
// instruction stream Machine.Run materializes, with matching counts, and
// its NextInto and Next forms are interchangeable: the same records, Counts
// and Err either way.
func TestSourceMatchesRun(t *testing.T) {
	img := sourceTestImage(t)
	want, err := New(img).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	inputs := []struct {
		name string
		open func() TraceSource
	}{
		{"machine", func() TraceSource { return NewSource(New(img), 1<<20) }},
		{"trace", func() TraceSource { return want.Source() }},
		{"bus", func() TraceSource { return NewBroadcast(NewSource(New(img), 1<<20), 16).View() }},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			byInto, byValue := in.open(), in.open()
			if byInto.Name() != want.Name {
				t.Errorf("source name %q, want %q", byInto.Name(), want.Name)
			}
			var got []DynInst
			var d DynInst
			for byInto.NextInto(&d) {
				got = append(got, d)
			}
			if byInto.Err() != nil {
				t.Fatalf("source error: %v", byInto.Err())
			}
			if len(got) != want.Len() {
				t.Fatalf("source delivered %d instructions, Run materialized %d", len(got), want.Len())
			}
			for i := range got {
				if got[i] != want.Insts[i] {
					t.Fatalf("instruction %d differs: %+v vs %+v", i, got[i], want.Insts[i])
				}
			}
			c := byInto.Counts()
			if c.Insts != int64(want.Len()) || c.Branches != want.Branches ||
				c.Loads != want.Loads || c.Stores != want.Stores || c.Setup != want.Setup {
				t.Errorf("counts %+v inconsistent with trace (%d insts, %d br, %d ld, %d st, %d setup)",
					c, want.Len(), want.Branches, want.Loads, want.Stores, want.Setup)
			}
			// NextInto after exhaustion stays exhausted.
			if byInto.NextInto(&d) {
				t.Error("NextInto returned an instruction after end of stream")
			}

			for i := 0; ; i++ {
				v, ok := byValue.Next()
				if !ok {
					if i != len(got) {
						t.Fatalf("Next delivered %d instructions, NextInto %d", i, len(got))
					}
					if v != (DynInst{}) {
						t.Errorf("Next at end of stream returned non-zero %+v", v)
					}
					break
				}
				if i >= len(got) || v != got[i] {
					t.Fatalf("Next instruction %d differs from NextInto's", i)
				}
			}
			if byValue.Counts() != byInto.Counts() || byValue.Err() != byInto.Err() {
				t.Errorf("Next form: counts %+v err %v, NextInto form: counts %+v err %v",
					byValue.Counts(), byValue.Err(), byInto.Counts(), byInto.Err())
			}
		})
	}
}

// TestSourceMaxInsts: the budget bounds the stream exactly.
func TestSourceMaxInsts(t *testing.T) {
	img := sourceTestImage(t)
	src := NewSource(New(img), 10)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
	}
	if n != 10 {
		t.Errorf("delivered %d instructions, want 10", n)
	}
	if src.Err() != nil {
		t.Errorf("budget exhaustion is not an error, got %v", src.Err())
	}
}

// TestTraceSourceRoundTrip: Trace.Source replays the materialized stream and
// Materialize rebuilds an identical trace.
func TestTraceSourceRoundTrip(t *testing.T) {
	img := sourceTestImage(t)
	tr, err := New(img).Run(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Materialize(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != tr.Name || back.Len() != tr.Len() {
		t.Fatalf("round trip: %q/%d vs %q/%d", back.Name, back.Len(), tr.Name, tr.Len())
	}
	for i := range back.Insts {
		if back.Insts[i] != tr.Insts[i] {
			t.Fatalf("instruction %d differs after round trip", i)
		}
	}
	if back.Branches != tr.Branches || back.Loads != tr.Loads ||
		back.Stores != tr.Stores || back.Setup != tr.Setup {
		t.Errorf("counts differ after round trip")
	}
}

// TestSourceTrapDelivery: a faulting access is delivered with Trap set, then
// the stream ends with the MemError, exactly like Machine.Run.
func TestSourceTrapDelivery(t *testing.T) {
	b := program.NewBuilder("trap")
	b.Label("entry").Li(isa.S0, 0x1000).Lw(isa.A0, isa.S0, 0).
		Li(isa.S1, 0x9999999).Lw(isa.A1, isa.S1, 0).Halt()
	b.Data(0x1000, 1)
	b.ValidRange(0x1000, 0x1100)
	img, err := b.MustBuild().Layout()
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := New(img).Run(1 << 20)
	if wantErr == nil {
		t.Fatal("expected a memory exception from Run")
	}

	got, gotErr := Materialize(NewSource(New(img), 1<<20))
	if gotErr == nil {
		t.Fatal("expected a memory exception from the source")
	}
	if got.Len() != want.Len() {
		t.Fatalf("trap stream length %d, want %d", got.Len(), want.Len())
	}
	if !got.Insts[got.Len()-1].Trap {
		t.Error("final delivered instruction should carry Trap")
	}
	if gotErr.Error() != wantErr.Error() {
		t.Errorf("error %q, want %q", gotErr, wantErr)
	}
}
