// Command ledgerbench is the repository's benchmark. It drives the
// simulator stack only through its public surfaces — the noreba facade,
// experiments.Runner, the service and cluster HTTP API in-process, tracefile
// and sampling — on four seeded workloads, checks every delivered result
// bit-for-bit against a direct run of the same point, and prints one JSON
// result line: end-to-end metrics without tracing, per-layer metrics with
// it. README.md describes the workloads and metrics.
//
//	ledgerbench -workload job-stream -seed 1 -seconds 30 -trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(2)
	}
	res, err := run(context.Background(), opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed     = fs.Uint64("seed", 1, "input seed (generated kernels, job draw order)")
		seconds  = fs.Float64("seconds", 30, "measuring time")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		workdir  = fs.String("workdir", ".bench_build", "scratch directory for stores, traces and spans")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if _, ok := workloadDefs[*workload]; !ok {
		return options{}, fmt.Errorf("unknown workload %q (want %s)", *workload, strings.Join(workloadNames(), "|"))
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("-trace must be 0 or 1")
	}
	if *seconds < 0 {
		return options{}, fmt.Errorf("-seconds must not be negative")
	}
	return options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, size: fullSize}, nil
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ledgerbench: "+format+"\n", args...)
}

// minIterations is the fewest timed iterations of a run: from the second
// one on, the server reuses heap an earlier one freed, which the memory
// peak must cover.
const minIterations = 2

// run executes one benchmark run and returns its result line.
func run(ctx context.Context, opts options) (*result, error) {
	e, err := newEnv(opts)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setup := workloadDefs[opts.workload]

	// Set-up is repeated on its own before the timed region, each time from
	// a collected heap; setup_s is the median over these and the set-ups of
	// the timed iterations.
	var setups []float64
	var compileMs []float64
	fresh := func() (instance, error) {
		runtime.GC()
		before := len(e.compileTimes)
		sp := e.rec.start(nil, "setup")
		inst, err := setup(e, sp)
		d := sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", opts.workload, err)
		}
		setups = append(setups, d.Seconds())
		for _, ct := range e.compileTimes[before:] {
			var sum time.Duration
			for _, t := range ct {
				sum += t
			}
			compileMs = append(compileMs, float64(sum.Nanoseconds())/1e6)
		}
		return inst, nil
	}
	iterate := func() (*iteration, error) {
		inst, err := fresh()
		if err != nil {
			return nil, err
		}
		defer inst.close()
		runtime.GC()
		sp := e.rec.start(nil, "workload."+opts.workload)
		it, err := inst.run(ctx, sp)
		sp.end()
		return it, err
	}
	for range opts.size.setupReps {
		inst, err := fresh()
		if err != nil {
			return nil, err
		}
		inst.close()
	}

	budget := time.Duration(opts.seconds * float64(time.Second))
	if opts.trace {
		return e.traced(ctx, iterate, compileMs)
	}
	var its []*iteration
	var timed time.Duration
	for len(its) < minIterations || timed < budget {
		it, err := iterate()
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		timed += it.wall
	}

	res := &result{}
	var rows []delivered
	// The process's peak, across iterations: a later iteration reuses heap
	// the first one freed, and reused memory is zeroed, so it is resident.
	rss := peakRSSMB()
	var lats, rates []float64
	for _, it := range its {
		res.Attempted += int64(it.attempted)
		res.Failed += int64(it.failed)
		rows = append(rows, it.rows...)
		for _, d := range it.rows {
			if d.ok {
				lats = append(lats, ms(d.lat))
			}
		}
		for _, s := range it.samples {
			rates = append(rates, s.rate())
		}
	}
	grid, curated := e.errGrid()
	rf, err := e.references(ctx, rows, grid, nil)
	if err != nil {
		return nil, fmt.Errorf("reference runs: %w", err)
	}
	res.Failed += int64(rf.check(rows))
	errMax, errMean := rf.ipcErr(curated)
	// Logged only: the generated kernels' points depend on the seed.
	rf.ipcErr(func(p point) bool { return generated(p.Workload) })
	logf("%s seed %d: %d iterations, %d results (%d latency samples), %d throughput samples, %d failed", opts.workload, opts.seed, len(its), res.Attempted, len(lats), len(rates), res.Failed)
	vals := map[string]float64{
		"setup_s":                  median(setups),
		"minst_per_s":              median(rates),
		"job_p50_ms":               quantile(lats, 0.50),
		"job_p95_ms":               quantile(lats, 0.95),
		"peak_rss_mb":              rss,
		"sampled_ipc_err_max_pct":  errMax,
		"sampled_ipc_err_mean_pct": errMean,
		"success_rate":             1 - ratio(float64(res.Failed), float64(res.Attempted)),
	}
	return finish(res, endToEnd, vals)
}

// finish fills res's metrics and its verdict.
func finish(res *result, defs []metricDef, vals map[string]float64) (*result, error) {
	var missing []string
	res.Metrics, missing = emit(defs, vals)
	if len(missing) > 0 {
		return nil, fmt.Errorf("metrics not measured: %s", strings.Join(missing, ", "))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no result was attempted")
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// peakRSSMB returns the process's resident-set high-water mark in MiB
// (VmHWM), falling back to the Go runtime's total reservation where /proc
// is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) == 2 && f[1] == "kB" {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// spansPath is where a traced run writes its spans.
func (e *env) spansPath() string {
	return filepath.Join(e.opts.workdir, fmt.Sprintf("spans-%s-seed%d.jsonl", e.opts.workload, e.opts.seed))
}
