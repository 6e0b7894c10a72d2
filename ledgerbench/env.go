package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/noreba-sim/noreba"
	"github.com/noreba-sim/noreba/internal/cluster"
	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/service"
	"github.com/noreba-sim/noreba/internal/workgen"
	"github.com/noreba-sim/noreba/internal/workloads"
)

// size scales one run. fullSize is what BENCHMARK.json's runs use: every
// curated kernel at its default scale and the server's default instruction
// bound. The smoke test shrinks it.
type size struct {
	kernels   []string // curated kernels; nil means all of them
	gens      int      // generated programs drawn from the seed
	maxInsts  int64    // dynamic instruction bound per simulation
	setupReps int      // set-ups before the timed region (setup_s is the median)
	svcJobs   int      // distinct jobs of the isolated service probe
	probeGrid int      // kernels in the isolated cluster probe's sweep
}

var fullSize = size{gens: 2, maxInsts: 1 << 20, setupReps: 31, svcJobs: 8, probeGrid: 4}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	size     size
}

// env is one run's shared state: the seeded kernel list, the compiled
// programs of the latest set-up, the span recorder, the HTTP client and a
// scratch directory inside the work directory.
type env struct {
	opts     options
	procs    int
	kernels  []string
	compiled map[string]*noreba.CompileResult
	// compileTimes holds every set-up's per-kernel compile times.
	compileTimes []map[string]time.Duration
	rec          *recorder
	client       *http.Client
	tmp          string
	dirs         int
}

func newEnv(opts options) (*env, error) {
	kernels, err := kernelSet(opts.seed, opts.size)
	if err != nil {
		return nil, err
	}
	if err := longestFirst(kernels, opts.size.maxInsts); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opts.workdir, "run-")
	if err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	return &env{
		opts:    opts,
		procs:   procs,
		kernels: kernels,
		rec:     newRecorder(fmt.Sprintf("%s/seed%d/%d", opts.workload, opts.seed, time.Now().UnixNano())),
		// One process generates all load, over at most GOMAXPROCS
		// connections.
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: procs, MaxIdleConnsPerHost: procs}},
		tmp:    tmp,
	}, nil
}

func (e *env) close() {
	e.client.CloseIdleConnections()
	os.RemoveAll(e.tmp)
}

// freshDir returns a new empty directory under the run's scratch space.
func (e *env) freshDir(prefix string) (string, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("%s-%d", prefix, e.dirs))
	return dir, os.MkdirAll(dir, 0o755)
}

// kernelSet returns the run's kernels: the curated suite plus sz.gens
// generated programs whose generator seeds are drawn from seed.
func kernelSet(seed uint64, sz size) ([]string, error) {
	kernels := sz.kernels
	if kernels == nil {
		for _, w := range workloads.Curated() {
			kernels = append(kernels, w.Name)
		}
	}
	kernels = append([]string(nil), kernels...)
	rng := rand.New(rand.NewSource(int64(seed)))
	seen := map[string]bool{}
	for len(seen) < sz.gens {
		name := workgen.FromSeed(uint64(1000 + rng.Intn(1<<20))).Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		if _, err := workloads.EnsureGenerated(name); err != nil {
			return nil, err
		}
		kernels = append(kernels, name)
	}
	return kernels, nil
}

// longestFirst orders kernels by dynamic stream length, longest first (ties
// by name). Requests go out in this order, so GOMAXPROCS clients finish a
// pass together instead of one client running the longest kernel alone at
// the end.
func longestFirst(kernels []string, maxInsts int64) error {
	n := map[string]int64{}
	for _, k := range kernels {
		w, err := noreba.WorkloadByName(k)
		if err != nil {
			return err
		}
		res, err := noreba.Compile(w.Build(w.DefaultScale))
		if err != nil {
			return fmt.Errorf("compile %s: %w", k, err)
		}
		src := noreba.StreamTrace(res, maxInsts)
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			n[k]++
		}
	}
	sort.Slice(kernels, func(i, j int) bool {
		if n[kernels[i]] != n[kernels[j]] {
			return n[kernels[i]] > n[kernels[j]]
		}
		return kernels[i] < kernels[j]
	})
	return nil
}

// compileAll builds and compiles every kernel through the facade, as a user
// preparing inputs does, and records the per-kernel compile times.
func (e *env) compileAll(parent *span) error {
	e.compiled = map[string]*noreba.CompileResult{}
	times := map[string]time.Duration{}
	for _, k := range e.kernels {
		w, err := noreba.WorkloadByName(k)
		if err != nil {
			return err
		}
		var res *noreba.CompileResult
		d, err := e.rec.timed(parent, "compiler.compile", func(*span) error {
			var err error
			res, err = noreba.Compile(w.Build(w.DefaultScale))
			return err
		})
		if err != nil {
			return fmt.Errorf("compile %s: %w", k, err)
		}
		e.compiled[k] = res
		times[k] = d
	}
	e.compileTimes = append(e.compileTimes, times)
	return nil
}

// point is one simulation the benchmark asks for, in the service API's
// terms, at the core model's default ROB size.
type point struct {
	Workload string
	Core     string
	Policy   string
	ECL      bool
	Sample   bool
}

// config resolves p the way POST /jobs and POST /sweep do. Policies that do
// not read the compiler's annotations run with free setup instructions, the
// experiment convention the runner keys results under, so a trace replay of
// the point is the same point a sweep row or job reports.
func config(p point) (pipeline.Config, error) {
	cfg, err := service.BuildConfig(service.SubmitRequest{Workload: p.Workload, Policy: p.Policy, Core: p.Core, ECL: p.ECL})
	if err != nil {
		return cfg, err
	}
	if cfg.Policy != pipeline.Noreba && cfg.Policy != pipeline.IdealReconv {
		cfg.FreeSetup = true
	}
	return cfg, nil
}

// stack is one in-process single-node noreba-serve: a result runner over a
// fresh (or reopened) disk store, fronted by the cluster node, the job
// scheduler and the HTTP API on a loopback listener, wired as
// cmd/noreba-serve wires them with its default flags.
type stack struct {
	runner *experiments.Runner
	store  *service.DiskStore
	sched  *service.Scheduler
	ts     *httptest.Server
	url    string
}

func startStack(dir string, maxInsts int64) (*stack, error) {
	store, err := service.OpenDiskStore(dir, 512<<20)
	if err != nil {
		return nil, err
	}
	runner := experiments.NewRunner()
	runner.MaxInsts = maxInsts
	ts := httptest.NewUnstartedServer(nil)
	url := "http://" + ts.Listener.Addr().String()
	node, err := cluster.NewNode(cluster.Config{Self: url, Runner: runner, Local: store})
	if err != nil {
		ts.Close()
		return nil, err
	}
	runner.Store = node
	sched := service.NewScheduler(service.SchedulerConfig{Runner: runner, QueueLimit: 256, AgingStep: 30 * time.Second})
	api := service.NewServer(sched, store)
	node.Mount(api)
	ts.Config.Handler = api
	ts.Start()
	return &stack{runner: runner, store: store, sched: sched, ts: ts, url: url}, nil
}

// ready waits for the server's health check, as a client of a freshly
// started server does.
func (s *stack) ready(ctx context.Context, c *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("healthz: %s", resp.Status)
	}
	return nil
}

func (s *stack) close() {
	s.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.sched.Shutdown(ctx)
}

// counters snapshots the runner counters the per-layer metrics read.
type counters struct {
	calls, sims, emus      int64
	storeHits, storeMisses int64
}

func (s *stack) counters() counters {
	r := s.runner
	return counters{
		calls: r.SimulateCalls(), sims: r.SimulationsRun(), emus: r.EmulationsRun(),
		storeHits: r.StoreHits(), storeMisses: r.StoreMisses(),
	}
}
