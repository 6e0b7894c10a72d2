package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side call into a layer: its name (layer.operation),
// start and end relative to the recorder's epoch, the span that caused it,
// and the run ID shared by every span of one workload run.
type span struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent,omitempty"`
	Run     string  `json:"run"`
	Name    string  `json:"name"`
	StartMs float64 `json:"startMs"`
	EndMs   float64 `json:"endMs"`

	rec *recorder
	t0  time.Time
}

// recorder keeps finished spans in memory until the run ends. Every timed
// region of the benchmark goes through a span, so timing and tracing share
// one code path; with recording off a span still measures its duration but
// is not kept.
type recorder struct {
	mu    sync.Mutex
	on    bool
	run   string
	epoch time.Time
	next  int64
	spans []*span
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now()}
}

// setOn switches recording on or off for spans started afterwards.
func (r *recorder) setOn(on bool) {
	r.mu.Lock()
	r.on = on
	r.mu.Unlock()
}

// recording reports whether spans are being kept.
func (r *recorder) recording() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.on
}

// start opens a span under parent (nil for a root span).
func (r *recorder) start(parent *span, name string) *span {
	s := &span{Name: name, Run: r.run, rec: r, t0: time.Now()}
	r.mu.Lock()
	if r.on {
		r.next++
		s.ID = r.next
		if parent != nil {
			s.Parent = parent.ID
		}
	}
	r.mu.Unlock()
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	d := time.Since(s.t0)
	if s.ID == 0 {
		return d
	}
	r := s.rec
	s.StartMs = float64(s.t0.Sub(r.epoch).Nanoseconds()) / 1e6
	s.EndMs = s.StartMs + float64(d.Nanoseconds())/1e6
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return d
}

// timed runs fn inside a span and returns its duration.
func (r *recorder) timed(parent *span, name string, fn func(sp *span) error) (time.Duration, error) {
	sp := r.start(parent, name)
	err := fn(sp)
	return sp.end(), err
}

// write stores every recorded span as one JSON line in path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// count returns how many spans were recorded.
func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}
