package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Times are offsets from the tracer's start.
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"` // -1 for a root
	Name    string        `json:"name"`
	Request string        `json:"request"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the benchmark ends. It is used from
// one goroutine: the benchmark is a single closed-loop client.
type tracer struct {
	epoch   time.Time
	request string
	spans   []span
	open    []int
}

func newTracer(request string) *tracer {
	return &tracer{epoch: time.Now(), request: request}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Request: t.request, Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) time.Duration {
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic(fmt.Sprintf("trace: span %d closed out of order", id))
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = time.Since(t.epoch)
	return t.spans[id].dur()
}

// timed records fn as one span and returns its duration.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	id := t.begin(name)
	err := fn()
	d := t.end(id)
	if err != nil {
		return d, fmt.Errorf("%s: %w", name, err)
	}
	return d, nil
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap one another).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, upto := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, upto), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// write stores the spans, with their self times, as JSON.
func (t *tracer) write(path string) error {
	type row struct {
		span
		Self time.Duration `json:"self_ns"`
	}
	self := selfTimes(t.spans)
	rows := make([]row, len(t.spans))
	for i, s := range t.spans {
		rows[i] = row{s, self[i]}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}
