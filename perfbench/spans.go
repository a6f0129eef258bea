package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call: a name, a parent span (0 at the root), the
// cell (or request) it belongs to (-1 when none), and its start and end
// in microseconds since the recorder started.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Cell    int     `json:"cell"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// spanRecorder keeps every span in memory until the run ends, so
// recording costs a lock and an append, never I/O.
type spanRecorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{t0: time.Now()} }

func (r *spanRecorder) us(t time.Time) float64 {
	return float64(t.Sub(r.t0)) / float64(time.Microsecond)
}

// start opens a span and returns its id for end.
func (r *spanRecorder) start(name string, cell, parent int) int {
	now := r.us(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Cell: cell, Name: name, StartUS: now, EndUS: -1})
	return id
}

// end closes span id and returns its duration in seconds.
func (r *spanRecorder) end(id int) float64 {
	now := r.us(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.EndUS = now
	return (sp.EndUS - sp.StartUS) / 1e6
}

// add records a span timed elsewhere.
func (r *spanRecorder) add(name string, cell, parent int, start, end time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Cell: cell,
		Name: name, StartUS: r.us(start), EndUS: r.us(end)})
}

// write stores the spans as JSON lines.
func (r *spanRecorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, sp := range r.spans {
		if err := enc.Encode(sp); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanTotal is the time spent under one span name: the spans' summed
// duration and their self time, the part of each span its children do
// not cover.
type spanTotal struct {
	Name          string
	Count         int
	TotalS, SelfS float64
}

// totals aggregates the recorded spans by name, longest total first.
// Children of one span may overlap (a parallel pass), so a span's covered
// time is the union of its children's intervals.
func (r *spanRecorder) totals() []spanTotal {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][][2]float64)
	for _, sp := range r.spans {
		if sp.Parent > 0 {
			children[sp.Parent] = append(children[sp.Parent], [2]float64{sp.StartUS, sp.EndUS})
		}
	}
	byName := map[string]*spanTotal{}
	var out []*spanTotal
	for _, sp := range r.spans {
		t := byName[sp.Name]
		if t == nil {
			t = &spanTotal{Name: sp.Name}
			byName[sp.Name] = t
			out = append(out, t)
		}
		dur := sp.EndUS - sp.StartUS
		t.Count++
		t.TotalS += dur / 1e6
		t.SelfS += (dur - covered(children[sp.ID])) / 1e6
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	res := make([]spanTotal, len(out))
	for i, t := range out {
		res[i] = *t
	}
	return res
}

// covered is the length of the union of the intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, math.Inf(-1)
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}
