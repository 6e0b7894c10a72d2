// Package branchpred implements the branch direction predictors used by the
// NOREBA evaluation: a TAGE-SC-L-style predictor (TAGE with geometric
// history lengths, a lightweight statistical corrector and a loop
// predictor), a simple bimodal predictor for comparison, and a
// return-address stack for indirect jump (jalr) targets.
package branchpred

import mathbits "math/bits"

// Predictor predicts conditional branch directions. Update must be called
// for every dynamic conditional branch in program order with the actual
// outcome; it also advances internal history.
type Predictor interface {
	Predict(pc int) bool
	Update(pc int, taken bool)
}

const (
	numTagged  = 6
	taggedBits = 9 // 512 entries per tagged table
	tagBits    = 9
	baseBits   = 12  // 4096-entry bimodal base
	maxHist    = 128 // packed global-history capacity; >= max(histLens)
)

var histLens = [numTagged]int{4, 8, 16, 32, 64, 128}

type taggedEntry struct {
	tag    uint32
	ctr    int8  // 3-bit signed counter: -4..3, taken when >= 0
	useful uint8 // 2-bit usefulness
}

// TAGE is a tagged-geometric-history-length predictor in the style of
// TAGE-SC-L (the paper's Table 2 predictor), with a loop predictor and a
// per-branch statistical-corrector bias table layered on top.
type TAGE struct {
	base   []int8 // bimodal 2-bit counters: -2..1, taken when >= 0
	tables [numTagged][]taggedEntry

	// Global branch history, packed: bit a of the 128-bit value hist[1]:hist[0]
	// is the outcome of the conditional branch retired a shifts ago (bit 0 of
	// hist[0] is the newest). The folded per-table indices and tags derived
	// from it are memoized per history generation — every index/tag lookup
	// between two history shifts (the frontend Predict, the commit-time
	// Update, and any allocation probes) sees the same history, so the folds
	// are computed once per retired branch instead of once per lookup.
	hist     [2]uint64
	histGen  uint64
	memoGen  uint64            // histGen the folds below were computed at
	foldIdx  [numTagged]uint32 // foldHistory(histLens[i], taggedBits)
	foldTagA [numTagged]uint32 // foldHistory(histLens[i], tagBits)
	foldTagB [numTagged]uint32 // foldHistory(histLens[i], tagBits-1)

	// Circular shift registers, one per memoized fold: csrX[i] holds the
	// unreversed positional fold Q(n, bits) = XOR over ages a < n of
	// h_a << (a mod bits), maintained O(1) per history shift (the Seznec
	// CSR formulation) instead of rescanned from the packed history. The
	// memoized fold values above derive from these in O(1) each — see
	// foldFromCSR. Clone's struct copy keeps them consistent with hist.
	csrIdx  [numTagged]uint32 // Q(histLens[i], taggedBits)
	csrTagA [numTagged]uint32 // Q(histLens[i], tagBits)
	csrTagB [numTagged]uint32 // Q(histLens[i], tagBits-1)

	useAlt int8 // 4-bit counter choosing alt prediction on weak providers

	loop *loopPredictor
	sc   []int8 // statistical-corrector bias counters: -16..15

	tick uint32 // periodic usefulness reset

	// prediction bookkeeping between Predict and Update
	lastPC       int
	provider     int // table index+1; 0 = base
	providerIdx  uint32
	altPred      bool
	providerPred bool
	providerWeak bool
	finalPred    bool
	tagePred     bool
	loopValid    bool
	loopPred     bool
	scUsed       bool
}

// NewTAGE returns a TAGE-SC-L-style predictor sized for an ~8KB budget.
func NewTAGE() *TAGE {
	t := &TAGE{
		base: make([]int8, 1<<baseBits),
		loop: newLoopPredictor(),
		sc:   make([]int8, 1<<10),
	}
	for i := range t.tables {
		t.tables[i] = make([]taggedEntry, 1<<taggedBits)
	}
	t.memoGen = ^uint64(0) // no folds memoized yet
	return t
}

// Reset returns the predictor to the state NewTAGE built while keeping its
// tables' storage. The tables total about 30 KB, so they are cleared whole.
func (t *TAGE) Reset() {
	clear(t.base)
	for i := range t.tables {
		clear(t.tables[i])
	}
	clear(t.sc)
	*t.loop = loopPredictor{}
	*t = TAGE{base: t.base, tables: t.tables, loop: t.loop, sc: t.sc, memoGen: ^uint64(0)}
}

// foldHistory folds the most recent n history bits into bits output bits:
// the bits are grouped newest-first into bits-wide chunks (newest bit at
// each chunk's MSB) and the chunks XORed together, the final partial chunk
// unshifted. Chunks are extracted word-parallel from the packed history;
// per-chunk bit order is restored with one Reverse32.
func (t *TAGE) foldHistory(n, bits int) uint32 {
	var raw uint32
	for pos := 0; pos+bits <= n; pos += bits {
		raw ^= t.histBits(pos, bits)
	}
	f := reverseBits(raw, bits)
	if cnt := n % bits; cnt > 0 {
		f ^= reverseBits(t.histBits(n-cnt, cnt), cnt)
	}
	return f
}

// histBits returns history bits at ages [pos, pos+width), age pos at bit 0.
func (t *TAGE) histBits(pos, width int) uint32 {
	var v uint64
	if pos >= 64 {
		v = t.hist[1] >> (pos - 64)
	} else {
		v = t.hist[0] >> pos
		if pos+width > 64 {
			v |= t.hist[1] << (64 - pos)
		}
	}
	return uint32(v) & (1<<width - 1)
}

// reverseBits reverses the low width bits of v.
func reverseBits(v uint32, width int) uint32 {
	return mathbits.Reverse32(v) >> (32 - width)
}

// rotl1 rotates the low width bits of v left by one.
func rotl1(v uint32, width int) uint32 {
	return (v<<1 | v>>(width-1)) & (1<<width - 1)
}

// shiftCSRs advances every circular shift register by one history position.
// Must be called immediately before the history shift that records taken:
// the outgoing bit of each window (age n-1) is read from the pre-shift
// history. Aging every bit by one rotates its chunk position (a mod bits)
// left by one; the incoming bit lands at position 0 and the outgoing bit —
// which the rotation wrapped to position n mod bits — is cancelled.
func (t *TAGE) shiftCSRs(taken bool) {
	var b uint32
	if taken {
		b = 1
	}
	for i, n := range histLens {
		out := t.histBits(n-1, 1)
		t.csrIdx[i] = rotl1(t.csrIdx[i], taggedBits) ^ out<<(n%taggedBits) ^ b
		t.csrTagA[i] = rotl1(t.csrTagA[i], tagBits) ^ out<<(n%tagBits) ^ b
		t.csrTagB[i] = rotl1(t.csrTagB[i], tagBits-1) ^ out<<(n%(tagBits-1)) ^ b
	}
}

// foldFromCSR derives foldHistory(n, bits) from the maintained CSR in O(1).
// The CSR accumulates chunks in positional (unreversed) bit order with the
// final partial chunk included at the low rem bits; foldHistory reverses
// each full chunk and XORs the partial chunk reversed within its own rem
// width. Splitting the partial chunk P back out of the CSR and re-adding it
// reversed-within-rem reconciles the two.
func (t *TAGE) foldFromCSR(csr uint32, n, bits int) uint32 {
	rem := n % bits
	if rem == 0 {
		return reverseBits(csr, bits)
	}
	p := t.histBits(n-rem, rem)
	return reverseBits(csr^p, bits) ^ reverseBits(p, rem)
}

// rebuildCSRs recomputes every circular shift register from the packed
// history via the reference fold. Slow path: only needed when hist is
// replaced wholesale rather than shifted (tests; Clone never needs it since
// the struct copy keeps CSRs and hist consistent).
func (t *TAGE) rebuildCSRs() {
	for i, n := range histLens {
		t.csrIdx[i] = t.rawFold(n, taggedBits)
		t.csrTagA[i] = t.rawFold(n, tagBits)
		t.csrTagB[i] = t.rawFold(n, tagBits-1)
	}
	t.memoGen = ^uint64(0)
}

// rawFold computes the positional (unreversed, partial-chunk-included) fold
// Q(n, bits) directly from the packed history.
func (t *TAGE) rawFold(n, bits int) uint32 {
	var q uint32
	for pos := 0; pos < n; pos += bits {
		w := bits
		if pos+w > n {
			w = n - pos
		}
		q ^= t.histBits(pos, w)
	}
	return q
}

// refreshFolds rederives the memoized folded indices and tags from the
// incrementally-maintained CSRs if the history has shifted since they were
// last computed. O(1) per fold.
func (t *TAGE) refreshFolds() {
	if t.memoGen == t.histGen {
		return
	}
	for i, n := range histLens {
		t.foldIdx[i] = t.foldFromCSR(t.csrIdx[i], n, taggedBits)
		t.foldTagA[i] = t.foldFromCSR(t.csrTagA[i], n, tagBits)
		t.foldTagB[i] = t.foldFromCSR(t.csrTagB[i], n, tagBits-1)
	}
	t.memoGen = t.histGen
}

func (t *TAGE) index(pc, table int) uint32 {
	t.refreshFolds()
	return (uint32(pc) ^ uint32(pc)>>taggedBits ^ t.foldIdx[table] ^ uint32(table)*0x9e37) & (1<<taggedBits - 1)
}

func (t *TAGE) tag(pc, table int) uint32 {
	t.refreshFolds()
	return (uint32(pc) ^ t.foldTagA[table] ^ t.foldTagB[table]<<1) & (1<<tagBits - 1)
}

func (t *TAGE) baseIdx(pc int) uint32 { return uint32(pc) & (1<<baseBits - 1) }

// Predict returns the predicted direction for the branch at pc.
func (t *TAGE) Predict(pc int) bool {
	t.lastPC = pc
	t.provider = 0
	t.altPred = t.base[t.baseIdx(pc)] >= 0
	t.providerPred = t.altPred
	t.providerWeak = t.base[t.baseIdx(pc)] == 0 || t.base[t.baseIdx(pc)] == -1

	alt := t.altPred
	for i := numTagged - 1; i >= 0; i-- {
		idx := t.index(pc, i)
		e := &t.tables[i][idx]
		if e.tag == t.tag(pc, i) {
			if t.provider == 0 {
				t.provider = i + 1
				t.providerIdx = idx
				t.providerPred = e.ctr >= 0
				t.providerWeak = e.ctr == 0 || e.ctr == -1
			} else {
				alt = e.ctr >= 0
				break
			}
		}
	}
	if t.provider != 0 {
		t.altPred = alt
	}

	pred := t.providerPred
	if t.provider != 0 && t.providerWeak && t.useAlt >= 0 {
		pred = t.altPred
	}
	t.tagePred = pred

	// Statistical corrector: override a weak TAGE prediction when the
	// per-branch bias is strong and disagrees.
	t.scUsed = false
	scIdx := uint32(pc) & (1<<10 - 1)
	if t.providerWeak {
		bias := t.sc[scIdx]
		if bias >= 8 && !pred {
			pred, t.scUsed = true, true
		} else if bias <= -9 && pred {
			pred, t.scUsed = false, true
		}
	}

	// Loop predictor: override when confident.
	t.loopValid, t.loopPred = t.loop.predict(pc)
	if t.loopValid {
		pred = t.loopPred
	}

	t.finalPred = pred
	return pred
}

// Update trains the predictor with the actual outcome of the most recently
// predicted branch at pc and shifts the global history.
func (t *TAGE) Update(pc int, taken bool) {
	if pc != t.lastPC {
		// Out-of-band update (e.g. warm-up): establish prediction state.
		t.Predict(pc)
	}

	t.loop.update(pc, taken)

	scIdx := uint32(pc) & (1<<10 - 1)
	t.sc[scIdx] = clamp8(t.sc[scIdx]+pm(taken), -16, 15)

	correct := t.tagePred == taken
	if t.provider != 0 && t.providerWeak {
		// Train the alt-choice counter.
		if t.altPred != t.providerPred {
			if t.altPred == taken {
				t.useAlt = clamp8(t.useAlt+1, -8, 7)
			} else {
				t.useAlt = clamp8(t.useAlt-1, -8, 7)
			}
		}
	}

	// Update provider counter.
	if t.provider == 0 {
		i := t.baseIdx(pc)
		t.base[i] = clamp8(t.base[i]+pm(taken), -2, 1)
	} else {
		e := &t.tables[t.provider-1][t.providerIdx]
		e.ctr = clamp8(e.ctr+pm(taken), -4, 3)
		if t.providerPred == taken && t.providerPred != t.altPred {
			if e.useful < 3 {
				e.useful++
			}
		} else if t.providerPred != taken && t.providerPred != t.altPred {
			if e.useful > 0 {
				e.useful--
			}
		}
	}

	// Allocate a new entry in a longer-history table on a misprediction.
	if !correct && t.provider <= numTagged {
		allocated := false
		for i := t.provider; i < numTagged && !allocated; i++ {
			idx := t.index(pc, i)
			e := &t.tables[i][idx]
			if e.useful == 0 {
				e.tag = t.tag(pc, i)
				e.ctr = pm(taken)
				allocated = true
			}
		}
		if !allocated {
			for i := t.provider; i < numTagged; i++ {
				idx := t.index(pc, i)
				if t.tables[i][idx].useful > 0 {
					t.tables[i][idx].useful--
				}
			}
		}
		t.tick++
		if t.tick&0x3ff == 0 {
			for i := range t.tables {
				for j := range t.tables[i] {
					t.tables[i][j].useful >>= 1
				}
			}
		}
	}

	// Shift global history; the CSRs shift first (they read each window's
	// outgoing bit from the pre-shift history).
	t.shiftCSRs(taken)
	t.hist[1] = t.hist[1]<<1 | t.hist[0]>>63
	t.hist[0] <<= 1
	if taken {
		t.hist[0] |= 1
	}
	t.histGen++
}

func pm(taken bool) int8 {
	if taken {
		return 1
	}
	return -1
}

func clamp8(v, lo, hi int8) int8 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// loopPredictor tracks loops with stable trip counts and predicts their
// exits.
type loopPredictor struct {
	entries [64]struct {
		pc        int
		tripCount int
		current   int
		conf      int
		valid     bool
	}
}

func newLoopPredictor() *loopPredictor { return &loopPredictor{} }

func (l *loopPredictor) slot(pc int) int { return pc & 63 }

// predict returns (valid, prediction). It predicts not-taken (loop exit)
// when the current iteration count reaches a confidently stable trip count.
func (l *loopPredictor) predict(pc int) (bool, bool) {
	e := &l.entries[l.slot(pc)]
	if !e.valid || e.pc != pc || e.conf < 3 || e.tripCount == 0 {
		return false, false
	}
	return true, e.current+1 < e.tripCount
}

func (l *loopPredictor) update(pc int, taken bool) {
	e := &l.entries[l.slot(pc)]
	if !e.valid || e.pc != pc {
		*e = struct {
			pc        int
			tripCount int
			current   int
			conf      int
			valid     bool
		}{pc: pc, valid: true}
	}
	if taken {
		e.current++
		if e.tripCount > 0 && e.current > e.tripCount {
			// Longer than remembered: not a stable loop (yet).
			e.conf = 0
			e.tripCount = 0
		}
		return
	}
	// Loop exit: current+1 iterations of "taken" ended.
	total := e.current + 1
	if total == e.tripCount {
		if e.conf < 7 {
			e.conf++
		}
	} else {
		e.conf = 0
		e.tripCount = total
	}
	e.current = 0
}

// Bimodal is a classic 2-bit-counter direction predictor, used in tests and
// as a low-end baseline.
type Bimodal struct {
	table []int8
}

// NewBimodal returns a bimodal predictor with 2^bits counters.
func NewBimodal(bits int) *Bimodal { return &Bimodal{table: make([]int8, 1<<bits)} }

func (b *Bimodal) idx(pc int) int { return pc & (len(b.table) - 1) }

// Predict returns the predicted direction for pc.
func (b *Bimodal) Predict(pc int) bool { return b.table[b.idx(pc)] >= 0 }

// Update trains the counter for pc.
func (b *Bimodal) Update(pc int, taken bool) {
	i := b.idx(pc)
	b.table[i] = clamp8(b.table[i]+pm(taken), -2, 1)
}

// Static always predicts a fixed direction; useful for experiments and
// tests.
type Static struct{ Taken bool }

// Predict returns the fixed direction.
func (s Static) Predict(int) bool { return s.Taken }

// Update is a no-op.
func (s Static) Update(int, bool) {}

// Oracle predicts perfectly; used for ideal-frontend experiments.
type Oracle struct{ Outcome func(pc int) bool }

// Predict consults the oracle function.
func (o Oracle) Predict(pc int) bool { return o.Outcome(pc) }

// Update is a no-op.
func (o Oracle) Update(int, bool) {}

// RAS is a return-address stack for predicting jalr targets.
type RAS struct {
	stack []int
	cap   int
	// Hits and Misses count target predictions.
	Hits, Misses int64
}

// NewRAS returns a return-address stack with the given capacity.
func NewRAS(capacity int) *RAS { return &RAS{cap: capacity} }

// Push records a call's return address.
func (r *RAS) Push(retPC int) {
	if len(r.stack) == r.cap {
		copy(r.stack, r.stack[1:])
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.stack = append(r.stack, retPC)
}

// Pop predicts the target of a return, recording whether it matched actual.
func (r *RAS) Pop(actual int) (predicted int, hit bool) {
	if len(r.stack) == 0 {
		r.Misses++
		return -1, false
	}
	predicted = r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	if predicted == actual {
		r.Hits++
		return predicted, true
	}
	r.Misses++
	return predicted, false
}
