package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The catalog below is
// the single list the benchmark emits; BENCHMARK.json at the repository
// root lists the same names and units (the smoke test checks both agree).
type metricDef struct {
	name string
	unit string
}

// endToEnd are the metrics a user of the system sees, reported by untraced
// runs (-trace 0) on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"minst_per_s", "Minst/s"},
	{"job_p50_ms", "ms"},
	{"job_p95_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"sampled_ipc_err_max_pct", "%"},
	{"sampled_ipc_err_mean_pct", "%"},
	{"success_rate", "ratio"},
}

// policyNames are the service API's commit-policy names, in the paper's
// figure order.
var policyNames = []string{"inorder", "nonspec", "noreba", "ideal", "specbr", "spec"}

// coreNames are the service API's machine models.
var coreNames = []string{"nhm", "hsw", "skl"}

// memKernels and computeKernels split the pipeline's per-instruction cost
// between kernels dominated by long memory stalls and kernels that are not.
var (
	memKernels     = []string{"mcf", "libquantum", "lbm", "bzip2", "CRC32"}
	computeKernels = []string{"dijkstra", "hmmer", "sha"}
)

// perLayer are the single-layer metrics reported by traced runs (-trace 1)
// on every workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"compiler.compile_ms", "ms"},
		{"emulator.minst_per_s", "Minst/s"},
		{"emulator.bus_peak_records", "records"},
		{"tracefile.encode_minst_per_s", "Minst/s"},
		{"tracefile.decode_minst_per_s", "Minst/s"},
		{"tracefile.bytes_per_inst", "B/inst"},
	}
	for _, p := range policyNames {
		defs = append(defs, metricDef{"pipeline.minst_per_s." + p, "Minst/s"})
	}
	defs = append(defs, []metricDef{
		{"pipeline.minst_per_s.mem", "Minst/s"},
		{"pipeline.minst_per_s.compute", "Minst/s"},
		{"pipeline.ns_per_sim_cycle", "ns"},
		{"pipeline.sim_cycles", "cycles"},
		{"pipeline.committed_insts", "insts"},
		{"pipeline.peak_window_records", "records"},
		{"sampling.plan_build_ms", "ms"},
		{"sampling.plan_encode_ms", "ms"},
		{"sampling.plan_load_ms", "ms"},
		{"sampling.plan_bytes", "B"},
		{"sampling.estimate_ms", "ms"},
		{"sampling.detail_frac", "ratio"},
		{"sampling.gen_ipc_err_max_pct", "%"},
		{"experiments.sims_per_emulation", "ratio"},
		{"experiments.run_requests_s", "s"},
		{"experiments.cache_hit_ratio", "ratio"},
		{"experiments.store_hit_ratio", "ratio"},
		{"service.submit_us", "us"},
		{"service.hit_result_us", "us"},
		{"service.queue_wait_ms", "ms"},
		{"service.run_ms", "ms"},
		{"service.store_get_us", "us"},
		{"service.store_put_us", "us"},
		{"service.latency_samples", "count"},
		{"cluster.first_row_ms", "ms"},
		{"cluster.sweep_overhead_frac", "ratio"},
		{"attrib.unexplained_frac", "ratio"},
		{"attrib.trace_overhead_frac", "ratio"},
	}...)
	return defs
}()

// metric is one value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// emit fills res.Metrics with every metric of defs from vals, failing if
// the benchmark forgot one: a missing metric is a benchmark bug, never a
// silent zero.
func emit(defs []metricDef, vals map[string]float64) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, missing
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs need not be sorted; it is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never used).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
