//go:build go1.24

package pipeline

import (
	"runtime"
	"testing"
	"weak"
)

// TestFinishedCoreIsCollectable: the Stats a run returns does not pin the
// core that produced it, so a cached result costs kilobytes, not the
// core's caches and tables.
func TestFinishedCoreIsCollectable(t *testing.T) {
	tr, meta := kernelTrace(t, "gcc")
	cfg, _ := recycleConfigs()
	c := NewCore(cfg, tr, meta)
	wc := weak.Make(c)
	st, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	c = nil
	for i := 0; i < 3 && wc.Value() != nil; i++ {
		runtime.GC()
	}
	if wc.Value() != nil {
		t.Fatal("the core outlives its run: the returned Stats still reaches it")
	}
	runtime.KeepAlive(st)
}
