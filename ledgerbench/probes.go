package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/noreba-sim/noreba"
	"github.com/noreba-sim/noreba/internal/cluster"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
	"github.com/noreba-sim/noreba/internal/service"
)

// layerCosts are isolated measurements of each layer on the run's kernels,
// one call at a time on one goroutine, made by the traced run after its
// timed iterations.
type layerCosts struct {
	insts      map[string]int64 // dynamic stream length per kernel
	emu        time.Duration    // draining StreamTrace, all kernels
	encode     time.Duration    // WriteTraceFile from a materialized trace
	decode     time.Duration    // draining OpenTraceFile
	traceBytes int64

	pipe   map[string]map[string]time.Duration // kernel → policy → solo Simulate on skl
	pipeSt map[string]map[string]*pipeline.Stats

	// BuildPlanContext, EncodePlan, LoadPlan and one estimate from the
	// loaded plan, all kernels.
	build, encodePlan, load, estimate time.Duration
	planBytes                         int64
	detail, estCommitted              int64
}

func (lc *layerCosts) totalInsts() int64 {
	var n int64
	for _, v := range lc.insts {
		n += v
	}
	return n
}

// probeLayers measures the emulator, tracefile, pipeline and sampling
// layers in isolation on every kernel of the run.
func (e *env) probeLayers(ctx context.Context, parent *span) (*layerCosts, error) {
	lc := &layerCosts{
		insts: map[string]int64{}, pipe: map[string]map[string]time.Duration{}, pipeSt: map[string]map[string]*pipeline.Stats{},
	}
	maxInsts := e.opts.size.maxInsts
	for _, k := range e.kernels {
		res := e.compiled[k]
		var n int64
		d, err := e.rec.timed(parent, "emulator.drain", func(*span) error {
			src := noreba.StreamTrace(res, maxInsts)
			for _, ok := src.Next(); ok; _, ok = src.Next() {
				n++
			}
			return src.Err()
		})
		if err != nil {
			return nil, fmt.Errorf("%s: emulate: %w", k, err)
		}
		lc.emu += d
		lc.insts[k] = n

		tr, err := noreba.Materialize(noreba.StreamTrace(res, maxInsts))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", k, err)
		}
		var buf bytes.Buffer
		d, err = e.rec.timed(parent, "tracefile.encode", func(*span) error {
			return noreba.WriteTraceFile(&buf, tr.Source(), res.Meta)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: encode: %w", k, err)
		}
		lc.encode += d
		lc.traceBytes += int64(buf.Len())
		var back int64
		d, err = e.rec.timed(parent, "tracefile.decode", func(*span) error {
			rd, err := noreba.OpenTraceFile(bytes.NewReader(buf.Bytes()))
			if err != nil {
				return err
			}
			for _, ok := rd.Next(); ok; _, ok = rd.Next() {
				back++
			}
			return rd.Err()
		})
		if err != nil || back != n {
			return nil, fmt.Errorf("%s: decode: %d of %d insts: %v", k, back, n, err)
		}
		lc.decode += d

		lc.pipe[k] = map[string]time.Duration{}
		lc.pipeSt[k] = map[string]*pipeline.Stats{}
		for _, pol := range policyNames {
			cfg, err := config(point{Workload: k, Core: "skl", Policy: pol})
			if err != nil {
				return nil, err
			}
			var st *pipeline.Stats
			d, err := e.rec.timed(parent, "pipeline.simulate", func(*span) error {
				var err error
				st, err = noreba.Simulate(cfg, tr, res.Meta)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", k, pol, err)
			}
			lc.pipe[k][pol], lc.pipeSt[k][pol] = d, st
		}

		if err := e.probeSampling(ctx, k, lc, parent); err != nil {
			return nil, err
		}
	}
	return lc, nil
}

// probeSampling builds, encodes and reloads one kernel's plan and
// estimates skl under NOREBA from the reloaded plan, paying the functional
// warming of its cache geometry.
func (e *env) probeSampling(ctx context.Context, k string, lc *layerCosts, parent *span) error {
	res := e.compiled[k]
	maxInsts := e.opts.size.maxInsts
	p := sampling.Default()
	var pl *sampling.Plan
	var data []byte
	d, err := e.rec.timed(parent, "sampling.plan_build", func(*span) error {
		var err error
		pl, err = sampling.BuildPlanContext(ctx, res.Image, res.Meta, maxInsts, p)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: plan: %w", k, err)
	}
	lc.build += d
	d, _ = e.rec.timed(parent, "sampling.plan_encode", func(*span) error {
		data = sampling.EncodePlan(pl)
		return nil
	})
	lc.encodePlan += d
	lc.planBytes += int64(len(data))
	d, err = e.rec.timed(parent, "sampling.plan_load", func(*span) error {
		var err error
		pl, err = sampling.LoadPlan(data, res.Image, maxInsts, p)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: plan load: %w", k, err)
	}
	lc.load += d
	cfg, err := config(point{Workload: k, Core: "skl", Policy: "noreba"})
	if err != nil {
		return err
	}
	var st *pipeline.Stats
	d, err = e.rec.timed(parent, "sampling.estimate", func(*span) error {
		var err error
		st, err = pl.EstimateContextN(ctx, cfg, res.Meta, 1)
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: estimate: %w", k, err)
	}
	lc.estimate += d
	lc.detail += st.SampledDetailInsts
	lc.estCommitted += st.Committed
	return nil
}

// svcCosts are service-layer samples: POST /jobs round trips, submit→result
// of a result already cached, and the scheduler's queue-wait and run times
// from job status timestamps.
type svcCosts struct {
	submit, hit, queueWait, run []float64 // µs, µs, ms, ms
}

// addStatus folds one finished job's scheduler timestamps into c.
func (c *svcCosts) addStatus(st service.JobStatus) {
	if st.Started == nil || st.Finished == nil {
		return
	}
	c.queueWait = append(c.queueWait, float64(st.Started.Sub(st.Submitted).Nanoseconds())/1e6)
	c.run = append(c.run, float64(st.Finished.Sub(*st.Started).Nanoseconds())/1e6)
}

// probeService runs a few jobs one at a time on a fresh stack, each twice:
// the second submission is served from the runner's cache.
func (e *env) probeService(ctx context.Context, parent *span) (*svcCosts, error) {
	dir, err := e.freshDir("svc")
	if err != nil {
		return nil, err
	}
	st, err := startStack(dir, e.opts.size.maxInsts)
	if err != nil {
		return nil, err
	}
	defer st.close()
	c := &svcCosts{}
	for _, k := range e.kernels[:min(e.opts.size.svcJobs, len(e.kernels))] {
		p := point{Workload: k, Core: "skl", Policy: "noreba"}
		for i := 0; i < 2; i++ {
			j := e.job(ctx, st.url, p, parent)
			if j.d.err != "" {
				return nil, fmt.Errorf("service probe %s: %s", k, j.d.err)
			}
			c.submit = append(c.submit, us(j.submit))
			if i == 1 {
				c.hit = append(c.hit, us(j.d.lat))
				continue
			}
			js, err := e.jobStatus(ctx, st.url, j.id)
			if err != nil {
				return nil, err
			}
			c.addStatus(js)
		}
	}
	return c, nil
}

// probeStore times DiskStore Put and Get of a real result on a fresh store.
func (e *env) probeStore(st *pipeline.Stats) (getUs, putUs float64, err error) {
	dir, err := e.freshDir("kv")
	if err != nil {
		return 0, 0, err
	}
	ds, err := service.OpenDiskStore(dir, 512<<20)
	if err != nil {
		return 0, 0, err
	}
	const n = 64
	var gets, puts []float64
	for i := range n {
		key := fmt.Sprintf("%064x", i+1)
		t0 := time.Now()
		if err := ds.Put(key, st); err != nil {
			return 0, 0, err
		}
		puts = append(puts, us(time.Since(t0)))
	}
	for i := range n {
		key := fmt.Sprintf("%064x", i+1)
		t0 := time.Now()
		if _, ok := ds.Get(key); !ok {
			return 0, 0, fmt.Errorf("store probe: key %s missing", key)
		}
		gets = append(gets, us(time.Since(t0)))
	}
	return median(gets), median(puts), nil
}

// probeCluster sweeps a small full-detail grid on a fresh stack, where each
// kernel's points share one emulation on the broadcast bus, and the same
// grid through a fresh runner's RunRequests: the sweep path's first-row
// latency, its overhead over the runner alone, and the bus's high-water
// mark.
func (e *env) probeCluster(ctx context.Context, parent *span) (firstRow time.Duration, overhead float64, busPeak int64, err error) {
	dir, err := e.freshDir("sweep")
	if err != nil {
		return 0, 0, 0, err
	}
	st, err := startStack(dir, e.opts.size.maxInsts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer st.close()
	kernels := e.kernels[:min(e.opts.size.probeGrid, len(e.kernels))]
	req := cluster.SweepRequest{Workloads: kernels, Cores: []string{"skl"}, Policies: policyNames}
	out := e.sweep(ctx, st.url, req, parent)
	if out.failed > 0 {
		return 0, 0, 0, fmt.Errorf("cluster probe: %d of %d points failed", out.failed, out.points)
	}
	var pts []point
	for _, d := range out.rows {
		pts = append(pts, d.p)
	}
	rr, err := e.runRequests(ctx, pts, parent)
	if err != nil {
		return 0, 0, 0, err
	}
	return out.firstRow, 1 - rr.Seconds()/out.wall.Seconds(), st.runner.PeakBusRecords(), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
