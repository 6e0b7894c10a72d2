package tracefile

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/iotest"

	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/workgen"
)

// fuzzSeedBlob builds a small valid trace deterministically for the seed
// corpus (optionally annotated, optionally ending on a memory exception).
func fuzzSeedBlob(f *testing.F, seed uint64, withMeta bool, trap bool) []byte {
	f.Helper()
	p := workgen.FromSeed(seed)
	p.Iterations = 3
	prog, _, err := workgen.Generate(p)
	if err != nil {
		f.Fatal(err)
	}
	img, err := prog.Layout()
	if err != nil {
		f.Fatal(err)
	}
	src := emulator.NewSource(emulator.New(img), 1<<12)
	var buf bytes.Buffer
	if !trap {
		if err := Write(&buf, src, nil); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	tw, err := NewWriter(&buf, src.Name(), nil)
	if err != nil {
		f.Fatal(err)
	}
	var last emulator.DynInst
	for i := 0; i < 5; i++ {
		d, ok := src.Next()
		if !ok {
			f.Fatal("source too short")
		}
		last = d
		if err := tw.WriteInst(&d); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Close(&emulator.MemError{PC: last.PC, Seq: last.Seq + 1, Addr: -9}); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzTraceRoundTrip holds the reader's three contracts against arbitrary
// bytes: (1) a malformed input fails with a *FormatError naming an in-bounds
// offset — never a panic, never a silently short stream; (2) an input the
// reader accepts is canonically re-serializable — writing the decoded stream
// and reading it back reproduces the stream exactly, and a second rewrite is
// byte-identical to the first (the writer is a fixed point); (3) decoding
// from buffered bytes and decoding byte by byte agree on every record and
// on the terminal error, offset and message included.
func FuzzTraceRoundTrip(f *testing.F) {
	valid := fuzzSeedBlob(f, 1, false, false)
	f.Add(valid)
	f.Add(fuzzSeedBlob(f, 2, false, true)) // ends on a memory exception
	f.Add(valid[:len(valid)-1])            // missing end marker
	f.Add(valid[:5])                       // header cut mid-name
	f.Add([]byte{})
	f.Add([]byte("NRTF"))
	f.Add([]byte("XXXX\x01\x00\x00"))                               // bad magic
	f.Add([]byte{'N', 'R', 'T', 'F', Version + 1, 0, 0})            // future version
	f.Add([]byte{'N', 'R', 'T', 'F', Version, 0xff, 0xff, 0x7f})    // hostile name length
	f.Add([]byte{'N', 'R', 'T', 'F', Version, 1, 'a', 1, 0xff, 1})  // hostile meta count
	f.Add([]byte{'N', 'R', 'T', 'F', Version, 0, 0, 0x7e})          // unknown record tag
	f.Add([]byte{'N', 'R', 'T', 'F', Version, 0, 0, 0x01, 0, 0, 0}) // zero seq delta

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := Open(bytes.NewReader(data))
		if err != nil {
			requireFormatError(t, err, data)
			return
		}
		var insts []emulator.DynInst
		for {
			d, ok := rd.Next()
			if !ok {
				break
			}
			insts = append(insts, d)
		}
		terminal := rd.Err()
		requireSameAsByteWise(t, data, insts, terminal)
		if terminal != nil {
			var me *emulator.MemError
			if errors.As(terminal, &me) {
				// A replayed trap end is a valid stream, re-serialized below.
			} else {
				requireFormatError(t, terminal, data)
				return
			}
		}

		// The reader accepted the stream: it must re-serialize losslessly.
		var first bytes.Buffer
		tw, err := NewWriter(&first, rd.Name(), rd.Meta())
		if err != nil {
			t.Fatalf("rewrite of accepted stream rejected: %v", err)
		}
		for _, d := range insts {
			if err := tw.WriteInst(&d); err != nil {
				t.Fatalf("rewrite of accepted record rejected: %v (%+v)", err, d)
			}
		}
		if err := tw.Close(terminal); err != nil {
			t.Fatalf("rewrite close: %v", err)
		}

		rd2, err := Open(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reread of rewrite failed: %v", err)
		}
		for i := 0; ; i++ {
			d, ok := rd2.Next()
			if !ok {
				if i != len(insts) {
					t.Fatalf("reread delivered %d insts, want %d", i, len(insts))
				}
				break
			}
			if i >= len(insts) || d != insts[i] {
				t.Fatalf("reread inst %d differs", i)
			}
		}
		if (rd2.Err() == nil) != (terminal == nil) {
			t.Fatalf("reread terminal %v, want %v", rd2.Err(), terminal)
		}
		if rd2.Name() != rd.Name() || rd2.Counts() != rd.Counts() {
			t.Fatal("reread changed name or counts")
		}

		// Canonical fixed point: rewriting the reread stream is byte-identical.
		var second bytes.Buffer
		tw2, err := NewWriter(&second, rd.Name(), rd.Meta())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range insts {
			if err := tw2.WriteInst(&d); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw2.Close(terminal); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("rewrite is not a fixed point")
		}
	})
}

func requireFormatError(t *testing.T, err error, data []byte) {
	t.Helper()
	fe, ok := AsFormatError(err)
	if !ok {
		t.Fatalf("malformed input failed with %T (%v), want *FormatError", err, err)
	}
	if fe.Offset < 0 || fe.Offset > int64(len(data)) {
		t.Fatalf("FormatError offset %d outside the %d-byte input", fe.Offset, len(data))
	}
}

// requireSameAsByteWise re-reads data through a one-byte reader, which
// leaves the bufio.Reader holding at most one byte so that every record
// takes the byte-wise path, and requires the records and terminal error the
// buffered decode produced.
func requireSameAsByteWise(t *testing.T, data []byte, insts []emulator.DynInst, terminal error) {
	t.Helper()
	rd, err := Open(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatalf("byte-wise open failed where buffered open succeeded: %v", err)
	}
	var d emulator.DynInst
	for i := 0; rd.NextInto(&d); i++ {
		if i >= len(insts) || d != insts[i] {
			t.Fatalf("byte-wise record %d differs from the buffered decode", i)
		}
	}
	if got := rd.Counts().Insts; got != int64(len(insts)) {
		t.Fatalf("byte-wise decode delivered %d records, buffered %d", got, len(insts))
	}
	if fmt.Sprint(rd.Err()) != fmt.Sprint(terminal) {
		t.Fatalf("byte-wise terminal %v, buffered %v", rd.Err(), terminal)
	}
}
