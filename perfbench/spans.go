package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// tracer keeps spans in memory for the traced run and writes them when
// the run ends. Spans are recorded only from the benchmark's own code,
// around HTTP calls and library calls into the program's modules. A nil
// tracer records nothing, which is the untraced run.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// span is one timed call. Spans of one operation share op; parent is
// the index of the enclosing span, or -1.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	start  time.Time
	end    time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, start: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanRow is one written span, times in microseconds from the run's
// start; self is the duration minus the part of it child spans cover.
type spanRow struct {
	span
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
	SelfUs  float64 `json:"self_us"`
}

// rows computes every span's duration and self time.
func (t *tracer) rows() []spanRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]spanRow, len(t.spans))
	for i, s := range t.spans {
		dur := s.end.Sub(s.start)
		out[i] = spanRow{
			span:    s,
			StartUs: us(s.start.Sub(t.t0)),
			DurUs:   us(dur),
			SelfUs:  us(dur - covered(s, children[s.ID])),
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start.Before(kids[j].start) })
	var total time.Duration
	var curS, curE time.Time
	for _, k := range kids {
		s, e := k.start, k.end
		if s.Before(parent.start) {
			s = parent.start
		}
		if e.After(parent.end) {
			e = parent.end
		}
		if !e.After(s) {
			continue
		}
		if curE.IsZero() || s.After(curE) {
			total += curE.Sub(curS)
			curS, curE = s, e
		} else if e.After(curE) {
			curE = e
		}
	}
	return total + curE.Sub(curS)
}

// meanUs returns the mean duration of the spans named name, and how
// many there were.
func meanUs(rows []spanRow, name string) (float64, int) {
	var sum float64
	n := 0
	for _, r := range rows {
		if r.Name == name {
			sum += r.DurUs
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// write stores the header line and every span as NDJSON.
func (t *tracer) write(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, r := range t.rows() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
