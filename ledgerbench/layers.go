package main

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// traced runs one untraced and one traced iteration, checks the traced
// iteration's results, measures every layer in isolation and reports the
// per-layer metrics.
func (e *env) traced(ctx context.Context, iterate func() (*iteration, error), compileMs []float64) (*result, error) {
	// The same iteration without and then with span recording: the ratio
	// of their walls is the tracing overhead.
	plain, err := iterate()
	if err != nil {
		return nil, err
	}
	e.rec.setOn(true)
	it, err := iterate()
	if err != nil {
		return nil, err
	}
	root := e.rec.start(nil, "layers")

	rf, err := e.references(ctx, it.rows, nil, root)
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	res := &result{Attempted: int64(it.attempted), Failed: int64(it.failed + rf.check(it.rows))}
	rr, err := e.runRequests(ctx, rf.full, root)
	if err != nil {
		return nil, err
	}
	lc, err := e.probeLayers(ctx, root)
	if err != nil {
		return nil, err
	}
	svc, err := e.probeService(ctx, root)
	if err != nil {
		return nil, err
	}
	isolatedHit := median(svc.hit) / 1e6 // seconds per job of pure service path
	if it.svc != nil {
		svc = it.svc // the job stream's own samples, under its load
	}
	k0 := e.kernels[0]
	getUs, putUs, err := e.probeStore(lc.pipeSt[k0]["noreba"])
	if err != nil {
		return nil, err
	}

	vals := map[string]float64{
		"compiler.compile_ms":        median(compileMs),
		"service.submit_us":          median(svc.submit),
		"service.hit_result_us":      median(svc.hit),
		"service.queue_wait_ms":      median(svc.queueWait),
		"service.run_ms":             median(svc.run),
		"service.store_get_us":       getUs,
		"service.store_put_us":       putUs,
		"experiments.run_requests_s": rr.Seconds(),
		"attrib.trace_overhead_frac": it.wall.Seconds()/plain.wall.Seconds() - 1,
	}
	e.layerRates(lc, vals)
	vals["sampling.gen_ipc_err_max_pct"], _ = rf.ipcErr(func(p point) bool { return generated(p.Workload) })

	var samples, peakWindow int64
	for _, d := range it.rows {
		if d.ok {
			samples++
			peakWindow = max(peakWindow, d.windowPeak)
		}
	}
	vals["service.latency_samples"] = float64(samples)
	vals["pipeline.peak_window_records"] = float64(peakWindow)

	c := it.ctr
	if it.records > 0 {
		vals["experiments.sims_per_emulation"] = float64(len(it.rows)) / float64(it.records)
	} else {
		vals["experiments.sims_per_emulation"] = ratio(float64(c.sims), float64(c.emus))
	}
	vals["experiments.cache_hit_ratio"] = ratio(float64(c.calls-c.sims-c.storeHits), float64(c.calls))
	vals["experiments.store_hit_ratio"] = ratio(float64(c.storeHits), float64(c.storeHits+c.storeMisses))

	first, overhead, bus, err := e.probeCluster(ctx, root)
	if err != nil {
		return nil, err
	}
	vals["cluster.first_row_ms"] = ms(first)
	vals["cluster.sweep_overhead_frac"] = overhead
	vals["emulator.bus_peak_records"] = float64(bus)
	vals["attrib.unexplained_frac"] = 1 - e.explained(it, lc, isolatedHit)/it.wall.Seconds()

	root.end()
	if err := e.rec.write(e.spansPath()); err != nil {
		return nil, err
	}
	logf("%s seed %d traced: %d spans in %s", e.opts.workload, e.opts.seed, e.rec.count(), e.spansPath())
	return finish(res, perLayer, vals)
}

// layerRates turns the isolated layer costs into per-layer metrics.
func (e *env) layerRates(lc *layerCosts, vals map[string]float64) {
	n := float64(lc.totalInsts())
	vals["emulator.minst_per_s"] = n / lc.emu.Seconds() / 1e6
	vals["tracefile.encode_minst_per_s"] = n / lc.encode.Seconds() / 1e6
	vals["tracefile.decode_minst_per_s"] = n / lc.decode.Seconds() / 1e6
	vals["tracefile.bytes_per_inst"] = float64(lc.traceBytes) / n

	// rate sums committed instructions and time over kernels × policies.
	rate := func(kernels, policies []string) float64 {
		var insts int64
		var d time.Duration
		for _, k := range kernels {
			for _, p := range policies {
				if st, ok := lc.pipeSt[k][p]; ok {
					insts += st.Committed
					d += lc.pipe[k][p]
				}
			}
		}
		return float64(insts) / d.Seconds() / 1e6
	}
	for _, p := range policyNames {
		vals["pipeline.minst_per_s."+p] = rate(e.kernels, []string{p})
	}
	vals["pipeline.minst_per_s.mem"] = rate(memKernels, policyNames)
	vals["pipeline.minst_per_s.compute"] = rate(computeKernels, policyNames)
	var cycles, committed int64
	var pipeTime time.Duration
	for _, k := range e.kernels {
		for _, p := range policyNames {
			cycles += lc.pipeSt[k][p].Cycles
			committed += lc.pipeSt[k][p].Committed
			pipeTime += lc.pipe[k][p]
		}
	}
	vals["pipeline.ns_per_sim_cycle"] = float64(pipeTime.Nanoseconds()) / float64(cycles)
	vals["pipeline.sim_cycles"] = float64(cycles)
	vals["pipeline.committed_insts"] = float64(committed)

	vals["sampling.plan_build_ms"] = ms(lc.build)
	vals["sampling.plan_encode_ms"] = ms(lc.encodePlan)
	vals["sampling.plan_load_ms"] = ms(lc.load)
	vals["sampling.plan_bytes"] = float64(lc.planBytes)
	vals["sampling.estimate_ms"] = ms(lc.estimate)
	vals["sampling.detail_frac"] = float64(lc.detail) / float64(lc.estCommitted)
}

// explained returns the wall time, in seconds, that the isolated per-layer
// costs account for in iteration it: each layer's per-unit cost times the
// units of work the iteration made it do, summed, over the GOMAXPROCS cores
// the iteration keeps busy. The rest of the wall is unexplained: HTTP,
// scheduling, contention between concurrent runs, and anything the model
// below leaves out. hit is the isolated cost of one job served from cache.
func (e *env) explained(it *iteration, lc *layerCosts, hit float64) float64 {
	n := float64(lc.totalInsts())
	emuPer := lc.emu.Seconds() / n
	encPer := lc.encode.Seconds() / n
	decPer := lc.decode.Seconds() / n
	compile := map[string]float64{}
	for _, k := range e.kernels {
		var xs []float64
		for _, ct := range e.compileTimes {
			xs = append(xs, ct[k].Seconds())
		}
		compile[k] = median(xs)
	}
	pipe := func(p point) float64 { return lc.pipe[p.Workload][p.Policy].Seconds() }
	emu := func(k string) float64 { return float64(lc.insts[k]) * emuPer }

	var kernels []string
	for _, d := range it.rows {
		if !slices.Contains(kernels, d.p.Workload) {
			kernels = append(kernels, d.p.Workload)
		}
	}
	var cpu float64
	switch e.opts.workload {
	case "trace-replay":
		for _, k := range kernels {
			cpu += emu(k) + float64(lc.insts[k])*encPer
		}
		for _, d := range it.rows {
			cpu += float64(lc.insts[d.p.Workload])*decPer + pipe(d.p)
		}
	case "job-stream":
		// A fresh job compiles its kernel once per server and runs solo;
		// every job pays the service path a cached one pays.
		compiled := map[string]bool{}
		ran := map[point]bool{}
		for _, j := range it.jobs {
			cpu += hit
			if j.repeat || ran[j.d.p] {
				continue
			}
			ran[j.d.p] = true
			k := j.d.p.Workload
			if !compiled[k] {
				compiled[k] = true
				cpu += compile[k]
			}
			cpu += emu(k) + pipe(j.d.p)
		}
	}
	return cpu / float64(e.procs)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
