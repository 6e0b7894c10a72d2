package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"github.com/noreba-sim/noreba/internal/cluster"
	"github.com/noreba-sim/noreba/internal/pipeline"
	"github.com/noreba-sim/noreba/internal/service"
)

// delivered is one result the system handed back: a sweep row, a job's
// statistics or a trace replay. Only what the metrics and the output check
// need is kept — the SHA-256 of the compact Stats JSON stands in for the
// bytes — so the benchmark's own memory stays out of the peak it measures.
type delivered struct {
	p          point
	ok         bool // a result arrived and parsed; err is empty
	sum        [sha256.Size]byte
	committed  int64
	windowPeak int64
	err        string
	lat        time.Duration
}

// decode keeps what d needs of a result's compact Stats JSON, turning a
// parse failure into a row error.
func (d *delivered) decode(raw []byte) {
	if d.err != "" {
		return
	}
	var st pipeline.Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		d.err = fmt.Sprintf("bad stats JSON: %v", err)
		return
	}
	d.keep(raw, &st)
}

// keep records a result whose compact JSON is raw.
func (d *delivered) keep(raw []byte, st *pipeline.Stats) {
	d.ok = true
	d.sum = sha256.Sum256(raw)
	d.committed = st.Committed
	d.windowPeak = st.WindowPeak
}

// sweepLine is any line of a POST /sweep JSONL stream.
type sweepLine struct {
	Type     string          `json:"type"`
	Index    int             `json:"index"`
	Workload string          `json:"workload"`
	Core     string          `json:"core"`
	Policy   string          `json:"policy"`
	Stats    json.RawMessage `json:"stats"`
	Error    string          `json:"error"`
	Points   int             `json:"points"`
	Errors   int             `json:"errors"`
}

// sweepOut is one parsed sweep.
type sweepOut struct {
	rows     []delivered
	points   int
	failed   int
	firstRow time.Duration
	wall     time.Duration
}

// sweep posts req and reads the stream to its done line. Every row that
// carries an error, is missing, or repeats an index counts as failed; a
// stream without a clean done line fails at least one point.
func (e *env) sweep(ctx context.Context, url string, req cluster.SweepRequest, parent *span) *sweepOut {
	ctx, cancel := context.WithTimeout(ctx, sweepTimeout)
	defer cancel()
	windows := max(1, len(req.Windows))
	out := &sweepOut{points: len(req.Workloads) * len(req.Cores) * len(req.Policies) * windows}
	sp := e.rec.start(parent, "cluster.sweep")
	defer func() { out.wall = sp.end() }()
	body, err := json.Marshal(req)
	if err != nil {
		out.failed = out.points
		return out
	}
	t0 := time.Now()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/sweep", bytes.NewReader(body))
	if err != nil {
		out.failed = out.points
		return out
	}
	resp, err := e.client.Do(hreq)
	if err != nil {
		logf("sweep: %v", err)
		out.failed = out.points
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		logf("sweep: %s: %s", resp.Status, msg)
		out.failed = out.points
		return out
	}
	seen := map[int]bool{}
	clean := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var ln sweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			logf("sweep: bad line: %v", err)
			continue
		}
		switch ln.Type {
		case "row":
			lat := time.Since(t0)
			if len(seen) == 0 {
				out.firstRow = lat
			}
			if seen[ln.Index] {
				out.failed++
				continue
			}
			seen[ln.Index] = true
			d := delivered{
				p:   point{Workload: ln.Workload, Core: ln.Core, Policy: ln.Policy, Sample: req.Sample},
				err: ln.Error, lat: lat,
			}
			d.decode(ln.Stats)
			if d.err != "" {
				out.failed++
			}
			out.rows = append(out.rows, d)
		case "done":
			clean = ln.Errors == 0 && ln.Points == out.points
		}
	}
	if err := sc.Err(); err != nil {
		logf("sweep: read: %v", err)
		clean = false
	}
	out.failed += out.points - len(seen)
	if !clean && out.failed == 0 {
		out.failed = 1
	}
	return out
}

// jobOut is one job of the job stream.
type jobOut struct {
	d      delivered
	submit time.Duration
	repeat bool
	id     string
}

// jobTimeout and sweepTimeout bound one job and one sweep; past them the
// request fails, so a hung server cannot keep the run from ending.
const (
	jobTimeout   = 60 * time.Second
	sweepTimeout = 120 * time.Second
)

// pollEvery is the result poll interval: far shorter than any job.
const pollEvery = time.Millisecond

// job submits p through POST /jobs and polls GET /jobs/{id}/result until
// the job settles.
func (e *env) job(ctx context.Context, url string, p point, parent *span) (out jobOut) {
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	out.d.p = p
	sp := e.rec.start(parent, "service.job")
	defer func() { out.d.lat = sp.end() }()

	sub := e.rec.start(sp, "service.submit")
	// Marshalling a struct of strings and bools cannot fail.
	body, _ := json.Marshal(service.SubmitRequest{Workload: p.Workload, Policy: p.Policy, Core: p.Core, ECL: p.ECL})
	var resp service.SubmitResponse
	code, raw, err := e.do(ctx, http.MethodPost, url+"/jobs", body)
	out.submit = sub.end()
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: status %d: %s", code, raw)
	}
	if err == nil {
		err = json.Unmarshal(raw, &resp)
	}
	if err != nil {
		out.d.err = err.Error()
		return out
	}
	out.id = resp.ID

	wait := e.rec.start(sp, "service.wait")
	defer wait.end()
	for {
		code, raw, err := e.do(ctx, http.MethodGet, url+"/jobs/"+resp.ID+"/result", nil)
		switch {
		case err != nil:
			out.d.err = err.Error()
			return out
		case code == http.StatusOK:
			var buf bytes.Buffer
			if err := json.Compact(&buf, raw); err != nil {
				out.d.err = err.Error()
				return out
			}
			out.d.decode(buf.Bytes())
			return out
		case code != http.StatusAccepted:
			out.d.err = fmt.Sprintf("result: status %d: %s", code, raw)
			return out
		}
		select {
		case <-ctx.Done():
			out.d.err = fmt.Sprintf("result: %v", context.Cause(ctx))
			return out
		case <-time.After(pollEvery):
		}
	}
}

// jobStatus reads a finished job's status (for its scheduler timestamps).
func (e *env) jobStatus(ctx context.Context, url, id string) (service.JobStatus, error) {
	var st service.JobStatus
	code, raw, err := e.do(ctx, http.MethodGet, url+"/jobs/"+id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// do sends one request and returns the status code and the whole body.
func (e *env) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}
