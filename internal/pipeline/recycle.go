package pipeline

import (
	"runtime"
	"sync"

	"github.com/noreba-sim/noreba/internal/branchpred"
	"github.com/noreba-sim/noreba/internal/cache"
	"github.com/noreba-sim/noreba/internal/prefetch"
)

// This file holds the free list through which a finished run hands its
// large fixed-geometry buffers to the next core of the same shape: the two
// cache hierarchies, the TAGE and DCPT tables, the window's record chunks,
// the entry pool and the completion wheel's buckets. Without it every run
// allocates ~1.7 MB afresh, and the garbage collector runs several times as
// often to take it back.
//
// Ownership rules. A core recycles only buffers it allocated (or took from
// the free list) itself and still uses when its run finishes: a hierarchy
// replaced by UseMemory or InstallWarmState, or handed to a WarmState by
// CaptureWarmState, stays with whoever holds it, and clones are never
// recycled. Buffers are reset when a new core takes them. Pointer-holding
// buffers (entry edge lists, wheel buckets) are cleared to their capacity
// when returned, so that a recycled buffer never keeps a finished run's
// other objects alive.

// geometry is the shape of a core's recyclable buffers: cores with equal
// geometry build caches, tables and a completion wheel of identical size.
type geometry struct {
	l1i, l1d, l2, l3, ways      int
	l1Lat, l2Lat, l3Lat, memLat int64
	tage                        bool
	pfTable, pfDegree           int // zero without a prefetcher
}

func geometryOf(cfg *Config) geometry {
	g := geometry{
		l1i: cfg.L1ISize, l1d: cfg.L1DSize, l2: cfg.L2Size, l3: cfg.L3Size, ways: cfg.CacheWays,
		l1Lat: cfg.L1Lat, l2Lat: cfg.L2Lat, l3Lat: cfg.L3Lat, memLat: cfg.MemLat,
		tage: cfg.Predictor == PredTAGE,
	}
	if cfg.PrefetchEnabled {
		g.pfTable, g.pfDegree = cfg.PrefetchTable, cfg.PrefetchDegree
	}
	return g
}

// buffers is one finished core's recyclable storage. Any field may be nil:
// a core returns only what it still owns.
type buffers struct {
	geo            geometry
	dcache, icache *cache.Hierarchy
	tage           *branchpred.TAGE
	dcpt           *prefetch.DCPT
	chunks         []*recChunk
	entries        []*Entry
	wheel          [][]entryRef
}

// freeList holds finished runs' buffers, oldest first.
var freeList struct {
	sync.Mutex
	bufs []*buffers
}

// takeBuffers removes and returns the most recently returned buffers of
// geometry geo, or an empty bundle when there are none. The caller resets
// what it uses.
func takeBuffers(geo geometry) *buffers {
	freeList.Lock()
	defer freeList.Unlock()
	bufs := freeList.bufs
	for i := len(bufs) - 1; i >= 0; i-- {
		if b := bufs[i]; b.geo == geo {
			copy(bufs[i:], bufs[i+1:])
			bufs[len(bufs)-1] = nil
			freeList.bufs = bufs[:len(bufs)-1]
			return b
		}
	}
	return &buffers{geo: geo}
}

// putBuffers adds b to the free list. Past GOMAXPROCS bundles — as many as
// can run at once — the oldest bundle is dropped, so an idle process holds
// at most GOMAXPROCS bundles of ~1.4 MB.
func putBuffers(b *buffers) {
	limit := runtime.GOMAXPROCS(0)
	freeList.Lock()
	defer freeList.Unlock()
	bufs := append(freeList.bufs, b)
	if len(bufs) > limit {
		n := copy(bufs, bufs[len(bufs)-limit:])
		clear(bufs[n:])
		bufs = bufs[:n]
	}
	freeList.bufs = bufs
}

// recycle spends the core: every buffer it allocated itself and still uses
// goes back to the free list, and the core drops its references so that
// nothing it does later can reach them. Called once the run's statistics
// are final.
func (c *Core) recycle() {
	b := &buffers{geo: c.own.geo}
	if c.dcache == c.own.dcache {
		b.dcache = c.dcache
	}
	if c.icache == c.own.icache {
		b.icache = c.icache
	}
	if t, ok := c.pred.(*branchpred.TAGE); ok && t == c.own.tage {
		b.tage = t
	}
	if c.dcpt == c.own.dcpt {
		b.dcpt = c.dcpt
	}
	b.chunks = c.win.takeChunks()
	b.entries = c.pool.takeAll(c.dead)
	b.wheel = c.wheel.takeBuckets()
	c.own = buffers{}
	c.dcache, c.icache, c.pred, c.dcpt = nil, nil, nil, nil
	c.dead = nil
	c.spent = true
	putBuffers(b)
}
