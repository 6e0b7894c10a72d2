package sampling

import (
	"context"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/pipeline"
)

// fingerprintDims replays the stream from src — typically a view of the
// build-time broadcast bus shared with the pilot run — through the
// reference core's caches, prefetcher and branch predictor at emulator
// speed (no pipeline timing) and distils two per-interval timing columns:
// mean data-access latency beyond an L1 hit, and control-transfer
// misprediction rate. These separate the timing-phase families a detailed
// out-of-order pilot run would see — memory-bound regimes shaped by
// prefetcher and fill context, and branch-resolution-bound regimes that
// gate non-speculative commit — at a small fraction of a pilot's cost.
// Columns are normalised to mean 1 so they are commensurate with the
// pilot-CPI dimension; an all-zero column (no misses, or no mispredictions)
// carries no signal and is dropped. Cancelling ctx ends the replay early
// (the caller's pilot fails with the cancellation; partial columns are
// discarded with it).
func fingerprintDims(ctx context.Context, src emulator.TraceSource, meta *compiler.Meta, prof *Profile) [][]float64 {
	cfg := pipeline.SkylakeConfig()
	src = &cancellableSource{src: src, ctx: ctx}
	core := pipeline.NewCoreFromSource(cfg, src, meta)

	n := len(prof.Intervals)
	mem := make([]float64, n)
	mis := make([]float64, n)
	idx := 0
	var pos int64
	core.FingerprintFunctional(src, func(memExtra int64, mispred bool) {
		for idx < n && pos >= prof.Intervals[idx].Start+prof.Intervals[idx].Insts {
			idx++
		}
		pos++
		if idx >= n {
			return
		}
		mem[idx] += float64(memExtra)
		if mispred {
			mis[idx]++
		}
	})
	for i := range prof.Intervals {
		if insts := prof.Intervals[i].Insts; insts > 0 {
			mem[i] /= float64(insts)
			mis[i] /= float64(insts)
		}
	}

	var dims [][]float64
	for _, d := range [][]float64{mem, mis} {
		if nd := normalizeMean1(d); nd != nil {
			dims = append(dims, nd)
		}
	}
	return dims
}

// cancellableSource ends a stream early once its context is cancelled,
// checking every 4096 deliveries. Consumers that have no early-exit path of
// their own (FingerprintFunctional drains its source to the end) wrap their
// source in one so a cancelled build does not replay the whole stream.
type cancellableSource struct {
	src emulator.TraceSource
	ctx context.Context
	n   int
}

func (s *cancellableSource) Name() string { return s.src.Name() }

func (s *cancellableSource) Next() (emulator.DynInst, bool) {
	var d emulator.DynInst
	if !s.NextInto(&d) {
		return emulator.DynInst{}, false
	}
	return d, true
}

func (s *cancellableSource) NextInto(d *emulator.DynInst) bool {
	s.n++
	if s.n&4095 == 0 && s.ctx.Err() != nil {
		return false
	}
	return s.src.NextInto(d)
}

func (s *cancellableSource) Err() error              { return s.src.Err() }
func (s *cancellableSource) Counts() emulator.Counts { return s.src.Counts() }

// normalizeMean1 rescales a non-negative column to mean 1, or returns nil
// for a column with no mass.
func normalizeMean1(d []float64) []float64 {
	var sum float64
	for _, x := range d {
		sum += x
	}
	if sum <= 0 {
		return nil
	}
	mean := sum / float64(len(d))
	out := make([]float64, len(d))
	for i, x := range d {
		out[i] = x / mean
	}
	return out
}
