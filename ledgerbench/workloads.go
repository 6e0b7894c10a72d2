package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/noreba-sim/noreba"
)

// instance is one set-up of a workload, ready for one timed iteration.
type instance interface {
	// run executes one timed iteration: a fixed amount of work.
	run(ctx context.Context, parent *span) (*iteration, error)
	close()
}

// iteration is what one timed iteration delivered and what it cost.
type iteration struct {
	wall      time.Duration
	rows      []delivered
	samples   []sample
	attempted int
	failed    int
	ctr       counters  // job stream: the server's runner counters
	jobs      []jobOut  // job stream
	svc       *svcCosts // job stream: its own service-layer samples
	records   int       // trace replay: traces recorded
}

// sample is one unit of client work — a kernel's record and replays, or a
// block of consecutive jobs of one client — with the
// committed instructions its results deliver and its wall time. The
// throughput metric is the median of their rates, which a burst of
// interference on the shared host moves less than a whole-run total.
type sample struct {
	insts int64
	wall  time.Duration
}

func (s sample) rate() float64 { return float64(s.insts) / s.wall.Seconds() / 1e6 }

// committed sums the committed instructions of the delivered rows.
func committed(rows []delivered) int64 {
	var n int64
	for _, d := range rows {
		n += d.committed
	}
	return n
}

// workloadDefs are the benchmark's workloads by name. setup builds one
// fresh instance; its cost is the set-up time.
var workloadDefs = map[string]func(e *env, sp *span) (instance, error){
	"trace-replay": setupReplay,
	"job-stream":   setupJobs,
}

// workloadNames lists workloadDefs in a stable order.
func workloadNames() []string {
	var names []string
	for n := range workloadDefs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// startFresh compiles the inputs and starts a single-node stack on an empty
// store, waiting until it answers its health check.
func (e *env) startFresh(sp *span) (*stack, error) {
	if err := e.compileAll(sp); err != nil {
		return nil, err
	}
	dir, err := e.freshDir("store")
	if err != nil {
		return nil, err
	}
	var st *stack
	_, err = e.rec.timed(sp, "service.start", func(*span) error {
		var err error
		if st, err = startStack(dir, e.opts.size.maxInsts); err != nil {
			return err
		}
		return st.ready(context.Background(), e.client)
	})
	if err != nil {
		if st != nil {
			st.close()
		}
		return nil, err
	}
	return st, nil
}

// replayWorkload records every kernel's dynamic stream to an NRTF trace
// file and replays each trace once per policy on skl, one solo simulation
// per replay, as `noreba-sim -trace-out` then `-trace-in -policy` do.
type replayWorkload struct {
	e   *env
	dir string
}

func setupReplay(e *env, sp *span) (instance, error) {
	if err := e.compileAll(sp); err != nil {
		return nil, err
	}
	dir, err := e.freshDir("traces")
	if err != nil {
		return nil, err
	}
	return &replayWorkload{e: e, dir: dir}, nil
}

func (w *replayWorkload) path(i int) string {
	return filepath.Join(w.dir, fmt.Sprintf("k%02d.nrtf", i))
}

func (w *replayWorkload) run(ctx context.Context, parent *span) (*iteration, error) {
	e := w.e
	t0 := time.Now()
	it := &iteration{records: len(e.kernels)}
	rows := make([]delivered, len(e.kernels)*len(policyNames))
	samples := make([]sample, len(e.kernels))
	errs := make([]error, len(e.kernels))
	parallel(len(e.kernels), e.procs, func(i int) {
		k0 := time.Now()
		if errs[i] = w.record(i, parent); errs[i] != nil {
			return
		}
		for j, pol := range policyNames {
			d := &rows[i*len(policyNames)+j]
			d.p = point{Workload: e.kernels[i], Core: "skl", Policy: pol}
			sp := e.rec.start(parent, "pipeline.replay")
			if err := replayOne(w.path(i), d); err != nil {
				d.err = err.Error()
			}
			d.lat = sp.end()
		}
		samples[i] = sample{committed(rows[i*len(policyNames) : (i+1)*len(policyNames)]), time.Since(k0)}
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("record %s: %w", e.kernels[i], err)
		}
	}
	for _, d := range rows {
		if d.err != "" {
			it.failed++
		}
	}
	it.rows, it.samples = rows, samples
	it.attempted = len(rows)
	it.wall = time.Since(t0)
	return it, nil
}

// record writes kernel i's dynamic stream to its trace file.
func (w *replayWorkload) record(i int, parent *span) error {
	e := w.e
	res := e.compiled[e.kernels[i]]
	_, err := e.rec.timed(parent, "tracefile.record", func(*span) error {
		f, err := os.Create(w.path(i))
		if err != nil {
			return err
		}
		if err := noreba.WriteTraceFile(f, noreba.StreamTrace(res, e.opts.size.maxInsts), res.Meta); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	})
	return err
}

// replayOne replays one recorded trace under d.p and stores its stats.
func replayOne(path string, d *delivered) error {
	cfg, err := config(d.p)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := noreba.OpenTraceFile(f)
	if err != nil {
		return err
	}
	st, err := noreba.SimulateSource(cfg, rd, rd.Meta())
	if err != nil {
		return err
	}
	raw, err := json.Marshal(st)
	if err != nil {
		return err
	}
	d.keep(raw, st)
	return nil
}

func (w *replayWorkload) close() {}

// parallel runs fn(0..n-1) on at most workers goroutines.
func parallel(n, workers int, fn func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
}

// jobBlock is how many consecutive jobs of one client make one throughput
// sample.
const jobBlock = 8

// jobRounds is how many rounds of fresh points (see jobGen) one iteration of
// the job stream serves: 12 jobs per kernel plus the repeats. Every
// iteration does the same work, so the jobs a server retains, and with them
// its memory, do not depend on how fast the host happens to be.
const jobRounds = 12

// jobWorkload is a closed loop of GOMAXPROCS clients, each submitting a job
// through POST /jobs and polling for its result before sending the next.
type jobWorkload struct {
	e  *env
	st *stack
}

func setupJobs(e *env, sp *span) (instance, error) {
	st, err := e.startFresh(sp)
	if err != nil {
		return nil, err
	}
	return &jobWorkload{e: e, st: st}, nil
}

func (w *jobWorkload) run(ctx context.Context, parent *span) (*iteration, error) {
	e := w.e
	gen := newJobGen(e.opts.seed, e.kernels, jobRounds)
	t0 := time.Now()
	var mu sync.Mutex
	var jobs []jobOut
	var samples []sample
	var wg sync.WaitGroup
	for range e.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var block sample
			for n := 0; ; {
				p, repeat, ok := gen.next()
				if !ok {
					return
				}
				j := e.job(ctx, w.st.url, p, parent)
				j.repeat = repeat
				block.wall += j.d.lat
				block.insts += j.d.committed
				mu.Lock()
				jobs = append(jobs, j)
				if n++; n%jobBlock == 0 {
					samples = append(samples, block)
					block = sample{}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	it := &iteration{wall: time.Since(t0), jobs: jobs, samples: samples, attempted: len(jobs), ctr: w.st.counters(), svc: &svcCosts{}}
	for _, j := range jobs {
		it.rows = append(it.rows, j.d)
		if j.d.err != "" {
			it.failed++
			continue
		}
		it.svc.submit = append(it.svc.submit, us(j.submit))
		switch {
		case j.repeat:
			it.svc.hit = append(it.svc.hit, us(j.d.lat))
		case e.rec.recording():
			// Scheduler timestamps cost one more request per job, so
			// only traced runs read them, after the stream has ended.
			st, err := e.jobStatus(ctx, w.st.url, j.id)
			if err != nil {
				return nil, err
			}
			it.svc.addStatus(st)
		}
	}
	return it, nil
}

func (w *jobWorkload) close() { w.st.close() }

// jobGen draws the job stream's points from the seed. Fresh points come in
// rounds: every round visits every kernel once, in a seeded order, with the
// kernel's next untried (core, policy, ECL) combination, so fresh points
// never repeat and every run mixes heavy and light kernels alike. Every
// fourth job instead repeats an earlier point (a runner-cache read). The
// stream ends after its last round.
type jobGen struct {
	mu      sync.Mutex
	rng     *rand.Rand
	kernels []string
	combos  [][]int // per kernel: seeded permutation of combination indices
	order   []int   // kernel order of the current round
	rounds  int
	round   int
	pos     int
	n       int
	issued  []point
}

// combos per kernel: core × policy × ECL.
var jobCombos = len(coreNames) * len(policyNames) * 2

// newJobGen draws rounds rounds (at most one per combination) over kernels.
func newJobGen(seed uint64, kernels []string, rounds int) *jobGen {
	g := &jobGen{rng: rand.New(rand.NewSource(int64(seed) ^ 0x6a6f62)), kernels: kernels, rounds: min(rounds, jobCombos)}
	for range kernels {
		g.combos = append(g.combos, g.rng.Perm(jobCombos))
	}
	g.order = g.rng.Perm(len(kernels))
	return g
}

func (g *jobGen) next() (point, bool, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.n++
	if g.n%4 == 0 && len(g.issued) > 0 {
		return g.issued[g.rng.Intn(len(g.issued))], true, true
	}
	if g.pos == len(g.order) {
		g.round++
		g.pos = 0
		g.order = g.rng.Perm(len(g.kernels))
	}
	if g.round == g.rounds {
		return point{}, false, false
	}
	k := g.order[g.pos]
	g.pos++
	c := g.combos[k][g.round]
	p := point{
		Workload: g.kernels[k],
		Core:     coreNames[c/(len(policyNames)*2)],
		Policy:   policyNames[(c/2)%len(policyNames)],
		ECL:      c%2 == 1,
	}
	g.issued = append(g.issued, p)
	return p, false, true
}
