// Package cache models the memory hierarchy of the simulated core: set
// associative L1i/L1d/L2/L3 caches with LRU replacement and per-line fill
// timing, chained into a Hierarchy whose latencies follow the paper's
// Table 2 (L1 4clk, L2 12clk, L3 36clk, then main memory).
//
// Timing model: an access at cycle c that misses at every level installs
// the line everywhere with a readiness timestamp; a later access to a line
// still in flight (an MSHR hit) pays only the remaining latency.
package cache

// LineSize is the cache line size in bytes.
const LineSize = 64

// line is one way of a set. A way is valid iff lastUse != 0: lruClock
// pre-increments, so every installed or hit line carries a stamp of at least
// 1, and a zero line is an empty way.
type line struct {
	tag     int64
	lastUse int64 // LRU clock; 0 marks an empty way
	readyAt int64 // cycle the fill completes
}

// Cache is one set-associative level.
type Cache struct {
	name     string
	sets     int
	ways     int
	latency  int64
	lines    []line // sets × ways; frozen shared storage in a COW clone
	lruClock int64

	// shift lazily rebases fill timestamps: a line's effective readiness is
	// line.readyAt + shift, and installs store readyAt - shift, so ShiftClock
	// is O(1) instead of a pass over every line.
	shift int64

	// Copy-on-write state, set only in clones made with CloneCOW: parent is
	// the frozen base this clone overlays (itself possibly a COW clone,
	// forming a chain down to a root that owns its lines), ownIdx maps a set
	// index to 1+slot in owned, and owned holds the materialized (privately
	// writable) sets, ways lines each. A nil ownIdx means the cache owns
	// lines outright. A set is resolved at the nearest chain level that has
	// materialized it; every level below a clone must stay frozen while the
	// clone is live.
	parent *Cache
	ownIdx []int32
	owned  []line

	// Statistics.
	Accesses int64
	Misses   int64
}

// New builds a cache with the given total size in bytes, associativity and
// hit latency in cycles.
func New(name string, sizeBytes, ways int, latency int64) *Cache {
	sets := sizeBytes / LineSize / ways
	if sets < 1 {
		sets = 1
	}
	return &Cache{
		name:    name,
		sets:    sets,
		ways:    ways,
		latency: latency,
		lines:   make([]line, sets*ways),
	}
}

// wipe returns an owning cache to the state New built: every way empty,
// clocks and statistics zero.
func (c *Cache) wipe() {
	clear(c.lines)
	c.lruClock, c.shift = 0, 0
	c.Accesses, c.Misses = 0, 0
}

// Name returns the level's name ("L1d", "L2", …).
func (c *Cache) Name() string { return c.name }

// Latency returns the level's hit latency.
func (c *Cache) Latency() int64 { return c.latency }

func (c *Cache) set(addr int64) []line {
	blk := addr / LineSize
	s := int(uint64(blk) % uint64(c.sets))
	if c.ownIdx == nil {
		return c.lines[s*c.ways : (s+1)*c.ways]
	}
	if idx := c.ownIdx[s]; idx != 0 {
		off := int(idx-1) * c.ways
		return c.owned[off : off+c.ways]
	}
	// First touch of this set: materialize a private copy. Even a lookup
	// must, since a hit updates the line's LRU stamp.
	off := len(c.owned)
	c.owned = append(c.owned, c.resolveSet(s)...)
	c.ownIdx[s] = int32(off/c.ways) + 1
	return c.owned[off : off+c.ways]
}

// resolveSet returns set s as seen through the COW chain, without
// materializing it here: the nearest level that owns or has materialized the
// set wins. Only valid on a COW clone (ownIdx non-nil) that has not
// materialized s itself. The returned slice aliases frozen storage.
func (c *Cache) resolveSet(s int) []line {
	for p := c.parent; ; p = p.parent {
		if p.ownIdx == nil {
			return p.lines[s*p.ways : (s+1)*p.ways]
		}
		if idx := p.ownIdx[s]; idx != 0 {
			off := int(idx-1) * p.ways
			return p.owned[off : off+p.ways]
		}
	}
}

// lookup returns the way holding addr, or nil.
func (c *Cache) lookup(addr int64) *line {
	tag := addr / LineSize
	set := c.set(addr)
	for i := range set {
		if set[i].lastUse != 0 && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

// install places addr's line into the cache with the given readiness time,
// evicting the LRU way.
func (c *Cache) install(addr, readyAt int64) *line {
	tag := addr / LineSize
	set := c.set(addr)
	victim := &set[0]
	for i := range set {
		if set[i].lastUse == 0 {
			victim = &set[i]
			break
		}
		if set[i].lastUse < victim.lastUse {
			victim = &set[i]
		}
	}
	c.lruClock++
	*victim = line{tag: tag, lastUse: c.lruClock, readyAt: readyAt - c.shift}
	return victim
}

// Contains reports whether addr's line is resident (regardless of fill
// completion); used by tests and the prefetcher.
func (c *Cache) Contains(addr int64) bool { return c.lookup(addr) != nil }

// Clone returns an independent deep copy of the level: contents, LRU order,
// fill timestamps and statistics. Cloning a COW clone flattens its chain.
func (c *Cache) Clone() *Cache {
	cp := *c
	if c.ownIdx == nil {
		cp.lines = append([]line(nil), c.lines...)
		return &cp
	}
	cp.lines = make([]line, c.sets*c.ways)
	for s := 0; s < c.sets; s++ {
		var src []line
		if idx := c.ownIdx[s]; idx != 0 {
			src = c.owned[int(idx-1)*c.ways : int(idx)*c.ways]
		} else {
			src = c.resolveSet(s)
		}
		copy(cp.lines[s*c.ways:(s+1)*c.ways], src)
	}
	cp.parent, cp.ownIdx, cp.owned = nil, nil, nil
	return &cp
}

// CloneCOW returns a copy-on-write clone layered over c: it resolves sets
// through c (and c's own chain, if any) and materializes a set privately the
// first time it is touched. c — the whole chain below the clone — must not
// be mutated while the clone is live; sampled simulation layers clones over
// frozen warm-state captures, which satisfies this. A detailed window
// touches a tiny fraction of a large cache's sets, so a COW clone replaces
// megabytes of line copying per window with one sets-sized index.
func (c *Cache) CloneCOW() *Cache {
	cp := *c
	cp.parent = c
	cp.lines = nil // sets resolve through the chain; avoid stale shortcuts
	cp.ownIdx = make([]int32, c.sets)
	cp.owned = nil
	return &cp
}

// shiftClock rebases every valid line's fill-completion timestamp by delta
// cycles; lastUse and lruClock are ordinal (access order, not cycles) and
// stay put. The rebase is a lazy O(1) offset applied wherever readyAt is
// read or written.
func (c *Cache) shiftClock(delta int64) { c.shift += delta }

// Hierarchy chains cache levels over a fixed-latency main memory.
type Hierarchy struct {
	Levels  []*Cache
	MemLat  int64
	MemAccs int64 // accesses that reached main memory

	// PrefetchIssued / PrefetchUseful count prefetcher activity for the
	// power model and statistics.
	PrefetchIssued int64
	PrefetchUseful int64
}

// Config holds one level's geometry.
type Config struct {
	Name    string
	Size    int
	Ways    int
	Latency int64
}

// NewHierarchy builds a hierarchy from level configs (ordered L1 → last
// level) and a main-memory latency.
func NewHierarchy(memLat int64, levels ...Config) *Hierarchy {
	h := &Hierarchy{MemLat: memLat}
	for _, l := range levels {
		h.Levels = append(h.Levels, New(l.Name, l.Size, l.Ways, l.Latency))
	}
	return h
}

// Access performs a demand access to addr at the given cycle and returns
// the cycle at which the data is available. Lines are installed at every
// level on the fill path (inclusive hierarchy).
func (h *Hierarchy) Access(addr, cycle int64) (doneAt int64) {
	return h.access(addr, cycle, false)
}

// Prefetch installs addr's line as if demanded at cycle, without polluting
// demand statistics beyond the levels it fills. Prefetches fill starting at
// the first level that misses.
func (h *Hierarchy) Prefetch(addr, cycle int64) {
	h.PrefetchIssued++
	h.access(addr, cycle, true)
}

func (h *Hierarchy) access(addr, cycle int64, prefetch bool) int64 {
	elapsed := int64(0)
	// The miss list lives on the stack: hierarchies have at most four
	// levels, so the append below never allocates.
	var missBuf [4]*Cache
	missLevels := missBuf[:0]
	for _, c := range h.Levels {
		if !prefetch {
			c.Accesses++
		}
		elapsed += c.latency
		if ln := c.lookup(addr); ln != nil {
			c.lruClock++
			ln.lastUse = c.lruClock
			ready := cycle + elapsed
			if eff := ln.readyAt + c.shift; eff > ready {
				ready = eff // in-flight fill: pay the remaining time
			}
			if !prefetch && ln.readyAt+c.shift > cycle && len(missLevels) == 0 {
				// Demand hit on an in-flight prefetch: it was useful.
				h.PrefetchUseful++
			}
			h.fill(missLevels, addr, ready)
			return ready
		}
		if !prefetch {
			c.Misses++
		}
		missLevels = append(missLevels, c)
	}
	if !prefetch {
		h.MemAccs++
	}
	ready := cycle + elapsed + h.MemLat
	h.fill(missLevels, addr, ready)
	return ready
}

func (h *Hierarchy) fill(levels []*Cache, addr, readyAt int64) {
	for _, c := range levels {
		c.install(addr, readyAt)
	}
}

// Clone returns an independent deep copy of the whole hierarchy. Sampled
// simulation uses it to capture functionally-warmed cache state once and
// reuse it across the configurations and representative windows that share
// the same warming input.
func (h *Hierarchy) Clone() *Hierarchy {
	cp := *h
	cp.Levels = make([]*Cache, len(h.Levels))
	for i, c := range h.Levels {
		cp.Levels[i] = c.Clone()
	}
	return &cp
}

// CloneCOW returns a copy-on-write copy of the whole hierarchy (see
// Cache.CloneCOW): the parent must stay frozen while the clone is live.
// Detailed sample windows use this to start from a captured warm state
// without copying every line of the large lower levels.
func (h *Hierarchy) CloneCOW() *Hierarchy {
	cp := *h
	cp.Levels = make([]*Cache, len(h.Levels))
	for i, c := range h.Levels {
		cp.Levels[i] = c.CloneCOW()
	}
	return &cp
}

// ShiftClock rebases every line's fill-completion timestamp by delta cycles.
// Access timing is linear in the access cycle — a hit's ready time is
// max(cycle+latency, readyAt) and a fill stores cycle+latency+... — so a
// hierarchy warmed on a clock c(i) and then shifted by delta is exactly the
// hierarchy warming on c(i)+delta would have produced. This lets one warming
// pass over a shared stream prefix serve several windows that open at
// different pseudo-cycles: capture, clone, shift each copy to its window's
// time base.
func (h *Hierarchy) ShiftClock(delta int64) {
	for _, c := range h.Levels {
		c.shiftClock(delta)
	}
}

// Clear returns a hierarchy built by NewHierarchy to the state it was built
// in: every line empty, clocks and statistics zero. Clearing a hierarchy
// whose levels are shared or copy-on-write clones is a bug; recycled per-run
// hierarchies are always private.
func (h *Hierarchy) Clear() {
	for _, c := range h.Levels {
		c.wipe()
	}
	h.MemAccs = 0
	h.PrefetchIssued, h.PrefetchUseful = 0, 0
}

// Reset clears statistics but keeps cache contents.
func (h *Hierarchy) Reset() {
	for _, c := range h.Levels {
		c.Accesses, c.Misses = 0, 0
	}
	h.MemAccs = 0
	h.PrefetchIssued, h.PrefetchUseful = 0, 0
}
