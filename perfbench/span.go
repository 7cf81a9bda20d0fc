package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the traced replay. Spans stay in memory
// and are written out once, when the run ends.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Name   string  `json:"name"`
	Job    int     `json:"job"`
	Start  float64 `json:"start_s"` // seconds since the trace began
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"` // filled by finish
	Allocs uint64  `json:"allocs,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer records nested spans from the benchmark's side of each call.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

// newTracer starts a trace. The span slice is sized up front so that no
// call's allocation count picks up its growth.
func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string, job int) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Job: job, Start: time.Since(t.t0).Seconds()})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span, and returns
// its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.spans[id].End = time.Since(t.t0).Seconds()
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].dur()
}

// finish fills every span's self time.
func (t *tracer) finish() {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for i := range t.spans {
		t.spans[i].Self = selfTime(t.spans[i], kids[t.spans[i].ID])
	}
}

// selfTime is the span's duration minus the part of its interval that its
// children cover; overlapping children are counted once.
func selfTime(s span, children []span) float64 {
	iv := make([][2]float64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered, curLo, curHi := 0.0, 0.0, -1.0
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			if i > 0 {
				covered += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		covered += curHi - curLo
	}
	return s.dur() - covered
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
