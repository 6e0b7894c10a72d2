// Package prefetch implements the Delta-Correlating Prediction Tables
// (DCPT) data prefetcher the paper's baseline uses (Grannæs, Jahre, Natvig,
// JILP 2011). Each load PC owns a table entry holding a circular buffer of
// recent address deltas; on every access the two most recent deltas are
// pattern-matched against the delta history, and the deltas that followed
// the previous occurrence of that pair generate prefetch candidates.
package prefetch

// numDeltas is the per-entry delta-history size.
const numDeltas = 16

// entry is one DCPT row.
type entry struct {
	pc           int
	lastAddr     int64
	lastPrefetch int64
	deltas       [numDeltas]int64
	head         int
	valid        bool
}

// DCPT is the delta-correlating prediction table.
type DCPT struct {
	entries []entry
	degree  int // max prefetches issued per access

	// Trained counts table updates; Predicted counts candidate addresses
	// produced.
	Trained   int64
	Predicted int64
}

// New returns a DCPT with the given number of table entries and prefetch
// degree.
func New(tableSize, degree int) *DCPT {
	if tableSize < 1 {
		tableSize = 1
	}
	if degree < 1 {
		degree = 4
	}
	return &DCPT{entries: make([]entry, tableSize), degree: degree}
}

func (d *DCPT) slot(pc int) *entry { return &d.entries[pc%len(d.entries)] }

// Clone returns an independent deep copy of the table, training statistics
// included. The delta histories are value arrays, so copying the entry slice
// copies everything.
func (d *DCPT) Clone() *DCPT {
	cp := *d
	cp.entries = append([]entry(nil), d.entries...)
	return &cp
}

// Reset returns the table to the state New built: every entry empty and
// the statistics zero. The table is a few kilobytes, so it is cleared whole.
func (d *DCPT) Reset() {
	clear(d.entries)
	d.Trained, d.Predicted = 0, 0
}

// Train records a load at pc touching addr and appends the prefetch
// candidate addresses predicted by delta correlation to dst, returning the
// extended slice. Callers pass a reused buffer truncated to zero length, so
// training allocates nothing once the buffer has grown to the degree.
func (d *DCPT) Train(pc int, addr int64, dst []int64) []int64 {
	d.Trained++
	e := d.slot(pc)
	if !e.valid || e.pc != pc {
		*e = entry{pc: pc, lastAddr: addr, valid: true}
		return dst
	}
	delta := addr - e.lastAddr
	if delta == 0 {
		return dst
	}
	e.lastAddr = addr
	e.deltas[e.head] = delta
	e.head = (e.head + 1) % numDeltas

	n := len(dst)
	dst = d.correlate(e, addr, dst)
	if len(dst) > n {
		e.lastPrefetch = dst[len(dst)-1]
	}
	d.Predicted += int64(len(dst) - n)
	return dst
}

// correlate searches the delta buffer (newest to oldest) for the most
// recent earlier occurrence of the two newest deltas, then appends the
// addresses the deltas that followed it lead to.
func (d *DCPT) correlate(e *entry, addr int64, dst []int64) []int64 {
	get := func(i int) int64 { // i = 0 newest
		return e.deltas[(e.head-1-i+2*numDeltas)%numDeltas]
	}
	d1, d2 := get(0), get(1)
	if d2 == 0 {
		return dst
	}
	// Find the pair (d2, d1) at an older position j (j = index of the d1
	// element of the matched pair, newest-relative).
	match := -1
	for j := 2; j < numDeltas-1; j++ {
		if get(j) == d1 && get(j+1) == d2 {
			match = j
			break
		}
	}
	if match == -1 {
		return dst
	}
	// Replay the deltas that followed the match (positions match-1 … 0).
	a := addr
	for j, n := match-1, len(dst); j >= 0 && len(dst)-n < d.degree; j-- {
		dd := get(j)
		if dd == 0 {
			break
		}
		a += dd
		// Suppress duplicates already prefetched.
		if a == e.lastPrefetch {
			continue
		}
		dst = append(dst, a)
	}
	return dst
}
