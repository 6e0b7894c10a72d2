package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/noreba-sim/noreba/internal/experiments"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/sampling"
)

// refResult is what the output check and the error metrics need of one
// reference run.
type refResult struct {
	Sum       [sha256.Size]byte `json:"sum"` // of the compact Stats JSON
	Committed int64             `json:"committed"`
	Cycles    int64             `json:"cycles"`
}

func (r refResult) ipc() float64 { return ratio(float64(r.Committed), float64(r.Cycles)) }

// refs are direct runs of every delivered point, made outside the timed
// region on a fresh runner with no store: Runner.SimulateSampledContext per
// point, with zero sampling parameters for full detail. Every point also
// gets a sampled estimate with the service's defaults, for the
// sampled-vs-full IPC error.
type refs struct {
	res  map[point]refResult
	full []point // the distinct full-detail points
}

// references computes refs for the full-detail points of rows and grid
// and for their sampled twins. Points already in the run's reference cache
// are not run again.
func (e *env) references(ctx context.Context, rows []delivered, grid []point, parent *span) (*refs, error) {
	var full, sampled []point
	seen := map[point]bool{}
	pts := make([]point, 0, len(rows)+len(grid))
	for _, d := range rows {
		pts = append(pts, d.p)
	}
	for _, p := range append(pts, grid...) {
		if !seen[p] {
			seen[p] = true
			full = append(full, p)
			p.Sample = true
			sampled = append(sampled, p)
		}
	}

	cache, err := e.loadRefCache()
	if err != nil {
		return nil, err
	}
	out := &refs{res: map[point]refResult{}, full: full}
	var missing []point
	for _, p := range append(full, sampled...) {
		if r, ok := cache[e.refKey(p)]; ok {
			out.res[p] = r
		} else {
			missing = append(missing, p)
		}
	}
	r := experiments.NewRunner()
	r.MaxInsts = e.opts.size.maxInsts
	var mu sync.Mutex
	var firstErr error
	e.direct(ctx, r, missing, func(p point, st *pipeline.Stats, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			var b []byte
			if b, err = json.Marshal(st); err == nil {
				res := refResult{Sum: sha256.Sum256(b), Committed: st.Committed, Cycles: st.Cycles}
				out.res[p], cache[e.refKey(p)] = res, res
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}, parent)
	if firstErr != nil {
		return nil, firstErr
	}
	if len(missing) > 0 {
		if err := e.saveRefCache(cache); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// The reference cache keeps every reference result a benchmark binary has
// computed in its work directory, keyed by the binary's SHA-256, so later
// runs of the same build check their output without simulating the same
// point again. The simulator is deterministic, which is the property the
// check relies on either way; a rebuilt binary starts a new cache.

// refCachePath names the cache of the running binary.
func (e *env) refCachePath() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return filepath.Join(e.opts.workdir, fmt.Sprintf("refs-%x.json", sum[:8])), nil
}

// refKey is a point's key in the cache: the point and the instruction bound.
func (e *env) refKey(p point) string {
	return fmt.Sprintf("%s|%s|%s|%t|%t|%d", p.Workload, p.Core, p.Policy, p.ECL, p.Sample, e.opts.size.maxInsts)
}

func (e *env) loadRefCache() (map[string]refResult, error) {
	cache := map[string]refResult{}
	path, err := e.refCachePath()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return cache, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, &cache); err != nil {
		return nil, fmt.Errorf("reference cache %s: %w", path, err)
	}
	return cache, nil
}

// saveRefCache replaces the cache file atomically.
func (e *env) saveRefCache(cache map[string]refResult) error {
	path, err := e.refCachePath()
	if err != nil {
		return err
	}
	data, err := json.Marshal(cache)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// direct runs every point on r from GOMAXPROCS goroutines, as many as the
// runner's pool executes at once, and returns the wall time.
func (e *env) direct(ctx context.Context, r *experiments.Runner, pts []point, keep func(point, *pipeline.Stats, error), parent *span) time.Duration {
	sp := e.rec.start(parent, "experiments.simulate")
	parallel(len(pts), e.procs, func(i int) {
		p := pts[i]
		cfg, err := config(p)
		if err != nil {
			keep(p, nil, err)
			return
		}
		var params sampling.Params
		if p.Sample {
			params = sampling.Default()
		}
		st, err := r.SimulateSampledContext(ctx, p.Workload, cfg, params)
		keep(p, st, err)
	})
	return sp.end()
}

// runRequests times a direct Runner.RunRequests over pts on a fresh runner:
// the experiments layer's batched path without HTTP in front of it.
func (e *env) runRequests(ctx context.Context, pts []point, parent *span) (time.Duration, error) {
	r := experiments.NewRunner()
	r.MaxInsts = e.opts.size.maxInsts
	reqs := make([]experiments.Request, len(pts))
	for i, p := range pts {
		cfg, err := config(p)
		if err != nil {
			return 0, err
		}
		reqs[i] = experiments.Request{Workload: p.Workload, Config: cfg}
	}
	return e.rec.timed(parent, "experiments.run_requests", func(*span) error {
		return r.RunRequests(ctx, reqs)
	})
}

// check compares every delivered row bit-for-bit with its reference and
// returns how many rows failed that were not already counted as failed.
func (rf *refs) check(rows []delivered) int {
	bad := 0
	for _, d := range rows {
		if d.err != "" {
			continue // counted by the workload
		}
		if want, ok := rf.res[d.p]; !ok || want.Sum != d.sum {
			if bad < 5 {
				logf("output mismatch: %+v", d.p)
			}
			bad++
		}
	}
	return bad
}

// ipcErr returns the max and mean |IPC| error, in percent, of the sampled
// estimate against the full-detail run over the full-detail points keep
// accepts. The errors are summed in sorted order so the mean repeats
// exactly.
func (rf *refs) ipcErr(keep func(point) bool) (maxPct, meanPct float64) {
	var errs []float64
	var worst point
	for p, full := range rf.res {
		if p.Sample || !keep(p) || full.ipc() == 0 {
			continue
		}
		sp := p
		sp.Sample = true
		if est, ok := rf.res[sp]; ok {
			e := 100 * math.Abs(est.ipc()-full.ipc()) / full.ipc()
			if e > maxPct || (e == maxPct && fmt.Sprint(p) < fmt.Sprint(worst)) {
				maxPct, worst = e, p
			}
			errs = append(errs, e)
		}
	}
	if len(errs) == 0 {
		return math.NaN(), math.NaN()
	}
	sort.Float64s(errs)
	for _, e := range errs {
		meanPct += e
	}
	logf("sampled |IPC err| over %d points: worst %.1f%% at %+v", len(errs), maxPct, worst)
	return maxPct, meanPct / float64(len(errs))
}

// generated reports whether a kernel comes from the workload generator.
func generated(kernel string) bool { return strings.HasPrefix(kernel, "gen/") }

// errGrid returns the extra points the sampled-error metrics need, and the
// filter selecting the points they are computed over: the default-scale
// grid, every curated kernel × nhm/hsw/skl × every policy. It does not
// depend on the seed, so the metrics repeat exactly; its reference runs are
// cached after a build's first run.
func (e *env) errGrid() ([]point, func(point) bool) {
	var grid []point
	for _, k := range e.kernels {
		if generated(k) {
			continue
		}
		for _, core := range coreNames {
			for _, pol := range policyNames {
				grid = append(grid, point{Workload: k, Core: core, Policy: pol})
			}
		}
	}
	return grid, func(p point) bool { return !generated(p.Workload) && !p.ECL }
}
