package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// tinySize runs every layer on two short kernels and one generated program.
var tinySize = size{kernels: []string{"CRC32", "sha"}, gens: 1, maxInsts: 20000, setupReps: 1, svcJobs: 2, probeGrid: 2}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestCatalogMatchesBenchmarkFile checks that BENCHMARK.json names exactly
// the workloads and metrics the benchmark emits, with the same units.
func TestCatalogMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), len(workloadDefs); got != want {
		t.Errorf("BENCHMARK.json lists %d workloads, benchmark has %d", got, want)
	}
	for _, n := range names {
		if _, ok := workloadDefs[n]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not a benchmark workload", n)
		}
	}
	check := func(kind string, defs []metricDef, listed []metricDef) {
		if len(defs) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, benchmark emits %d", kind, len(listed), len(defs))
		}
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for _, d := range listed {
			if u, ok := units[d.name]; !ok || u != d.unit {
				t.Errorf("%s: BENCHMARK.json metric %s [%s] does not match the benchmark's [%s]", kind, d.name, d.unit, u)
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// asserts a correct result carrying every named metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[traced], func(t *testing.T) {
				opts := options{workload: name, seed: 7, trace: traced, workdir: t.TempDir(), size: tinySize}
				res, err := run(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("emitted %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
					} else if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if traced {
					if _, err := os.Stat(opts.workdir + "/spans-" + name + "-seed7.jsonl"); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}
