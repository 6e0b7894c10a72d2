package pipeline

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"github.com/noreba-sim/noreba/internal/compiler"
	"github.com/noreba-sim/noreba/internal/emulator"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// kernelTrace materializes a curated kernel at its default scale.
func kernelTrace(t *testing.T, name string) (*emulator.Trace, *compiler.Meta) {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return buildTrace(t, w.Build(w.DefaultScale), true)
}

// emptyFreeList drops every recycled buffer, so the next core of any
// geometry allocates afresh.
func emptyFreeList() {
	freeList.Lock()
	freeList.bufs = nil
	freeList.Unlock()
}

func freeBundles(geo geometry) int {
	freeList.Lock()
	defer freeList.Unlock()
	n := 0
	for _, b := range freeList.bufs {
		if b.geo == geo {
			n++
		}
	}
	return n
}

// recycleConfigs are two runs of one geometry that leave different state
// behind: skl under NOREBA, and nhm in order with early commit of loads.
func recycleConfigs() (a, b Config) {
	a = SkylakeConfig()
	a.Policy = Noreba
	b = NehalemConfig()
	b.Policy = InOrder
	b.ECL = true
	return a, b
}

func mustRun(t testing.TB, cfg Config, tr *emulator.Trace, meta *compiler.Meta) *Stats {
	t.Helper()
	st, err := NewCore(cfg, tr, meta).Run()
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// freshRun simulates cfg on buffers allocated for the run alone.
func freshRun(t *testing.T, cfg Config, tr *emulator.Trace, meta *compiler.Meta) *Stats {
	t.Helper()
	emptyFreeList()
	st := mustRun(t, cfg, tr, meta)
	emptyFreeList()
	return st
}

// TestRecycleDeterminism: runs A, B, A in turn, each taking the buffers
// the previous one returned, give exactly the statistics of runs on fresh
// buffers.
func TestRecycleDeterminism(t *testing.T) {
	tr, meta := kernelTrace(t, "mcf")
	a, b := recycleConfigs()
	if geometryOf(&a) != geometryOf(&b) {
		t.Fatal("the two configurations must share a geometry to swap buffers")
	}
	wantA := freshRun(t, a, tr, meta)
	wantB := freshRun(t, b, tr, meta)

	for i, step := range []struct {
		cfg  Config
		want *Stats
	}{{a, wantA}, {b, wantB}, {a, wantA}} {
		if i > 0 && freeBundles(geometryOf(&step.cfg)) == 0 {
			t.Fatalf("run %d: the previous run returned no buffers", i)
		}
		if got := mustRun(t, step.cfg, tr, meta); !reflect.DeepEqual(got, step.want) {
			t.Fatalf("run %d (%s/%v) on recycled buffers differs from a fresh run:\n got %+v\nwant %+v",
				i, step.cfg.Name, step.cfg.Policy, got, step.want)
		}
	}
}

// TestRecycleDeterminismConcurrent: cores of both configurations running
// at once, handing buffers to each other through the free list, each give
// the fresh-run statistics. Run under -race, this also checks that the
// free list orders a returned buffer's last use before its next one.
func TestRecycleDeterminismConcurrent(t *testing.T) {
	tr, meta := kernelTrace(t, "gcc")
	a, b := recycleConfigs()
	cfgs := []Config{a, b}
	want := []*Stats{freshRun(t, a, tr, meta), freshRun(t, b, tr, meta)}

	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := (w + r) % len(cfgs)
				st, err := NewCore(cfgs[k], tr, meta).Run()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(st, want[k]) {
					t.Errorf("worker %d round %d (%s/%v) differs from a fresh run",
						w, r, cfgs[k].Name, cfgs[k].Policy)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRecycledBuffersHoldNoStaleEntries: the pointer-holding buffers a
// finished core returns name no entry anywhere in their capacity, so a
// recycled buffer cannot keep an earlier run's in-flight entries alive.
func TestRecycledBuffersHoldNoStaleEntries(t *testing.T) {
	tr, meta := kernelTrace(t, "mcf")
	cfg, _ := recycleConfigs()
	emptyFreeList()
	defer emptyFreeList()
	mustRun(t, cfg, tr, meta)
	b := takeBuffers(geometryOf(&cfg))
	if len(b.entries) == 0 || len(b.wheel) == 0 {
		t.Fatal("the run returned no entries or wheel buckets")
	}
	stale := func(refs []entryRef) bool {
		for _, r := range refs[:cap(refs)] {
			if r.e != nil {
				return true
			}
		}
		return false
	}
	for i, e := range b.entries {
		if stale(e.producers) || stale(e.consumers) {
			t.Fatalf("pooled entry %d keeps edge references past its lists' length", i)
		}
	}
	for i, bucket := range b.wheel {
		if len(bucket) != 0 || stale(bucket) {
			t.Fatalf("wheel bucket %d returned with %d events or stale references", i, len(bucket))
		}
	}
}

// TestFreeListBound: however many cores finish, the free list keeps at
// most GOMAXPROCS bundles, the most recently returned ones.
func TestFreeListBound(t *testing.T) {
	emptyFreeList()
	defer emptyFreeList()
	limit := runtime.GOMAXPROCS(0)
	newest := geometry{l1d: 1}
	for i := 0; i < limit+3; i++ {
		putBuffers(&buffers{geo: geometry{l1d: i + 2}})
	}
	putBuffers(&buffers{geo: newest})
	freeList.Lock()
	n := len(freeList.bufs)
	freeList.Unlock()
	if n != limit {
		t.Fatalf("free list holds %d bundles, want %d", n, limit)
	}
	if freeBundles(newest) != 1 {
		t.Fatal("the most recently returned bundle was dropped")
	}
}

// TestSharedMemoryIsNotRecycled: hierarchies a core did not allocate
// itself — multicore's shared memory, a warm-state capture — never reach
// the free list.
func TestSharedMemoryIsNotRecycled(t *testing.T) {
	tr, meta := kernelTrace(t, "gcc")
	cfg, _ := recycleConfigs()

	emptyFreeList()
	defer emptyFreeList()
	shared := NewCore(cfg, tr, meta)
	d, i := cfg.hierarchy(), cfg.icache()
	shared.UseMemory(d, i)
	if _, err := shared.Run(); err != nil {
		t.Fatal(err)
	}

	warm := NewCoreFromSource(cfg, tr.Source(), meta)
	ws := warm.CaptureWarmState()
	captured, clone := ws.dcache, warm.dcache
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}

	freeList.Lock()
	defer freeList.Unlock()
	for _, b := range freeList.bufs {
		if b.dcache == d || b.icache == i || b.dcache == captured || b.dcache == clone {
			t.Fatal("a hierarchy the core did not own reached the free list")
		}
	}
}

// TestSpentCoreKeepsFinalStats: after Run, Finalize keeps returning the
// statistics the run ended with, each call a separate copy.
func TestSpentCoreKeepsFinalStats(t *testing.T) {
	tr, meta := kernelTrace(t, "gcc")
	cfg, _ := recycleConfigs()
	c := NewCore(cfg, tr, meta)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	again := c.Finalize()
	if again == st || !reflect.DeepEqual(again, st) {
		t.Fatalf("Finalize on a spent core returned %p %+v, want a copy of %+v", again, again, st)
	}
	again.Cycles++
	if c.Finalize().Cycles != st.Cycles {
		t.Fatal("a returned Stats aliases the core's")
	}
}

// TestRepeatedRunAllocations: a run that reuses an earlier run's buffers
// allocates at most a quarter of what a run on fresh buffers did before
// buffers were recycled: 1.77 MB for gcc on skl, two thirds of it the
// cache hierarchies.
func TestRepeatedRunAllocations(t *testing.T) {
	const freshRunBytes = 1_773_608
	tr, meta := kernelTrace(t, "gcc")
	cfg, _ := recycleConfigs()
	mustRun(t, cfg, tr, meta) // leaves its buffers on the free list
	best := uint64(1 << 62)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		mustRun(t, cfg, tr, meta)
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	if best > freshRunBytes/4 {
		t.Fatalf("a repeated run allocates %d bytes, want at most %d", best, freshRunBytes/4)
	}
	t.Logf("repeated run allocates %d bytes (%.1f%% of a fresh run before recycling)",
		best, 100*float64(best)/freshRunBytes)
}
