package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer of asamap. Spans are
// recorded by the benchmark around its own calls, never inside the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`   // "<layer>.<call>"
	Iter   int    `json:"iter"`   // iteration id of the phase that made the call
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, when the run
// ends. A nil *tracer records nothing, so untraced runs pay one nil check
// per call. It is used from one goroutine at a time: the service loop's
// client goroutines record into their own tracers, merged afterwards.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int // open span indices
	iter  int
	next  int
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

// begin opens a span named "<layer>.<call>" under the innermost open span.
func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	t.next++
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.spans[t.stack[n-1]].ID
	}
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Iter: t.iter,
		Start: int64(time.Since(t.epoch))})
	t.stack = append(t.stack, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if t == nil || len(t.stack) == 0 {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].End = int64(time.Since(t.epoch))
}

// call runs fn inside a span.
func (t *tracer) call(name string, fn func()) {
	t.begin(name)
	fn()
	t.end()
}

func (t *tracer) setIter(i int) {
	if t != nil {
		t.iter = i
	}
}

// absorb appends another tracer's spans, renumbering their ids.
func (t *tracer) absorb(o *tracer) {
	if t == nil || o == nil {
		return
	}
	base := t.next
	for _, s := range o.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
	t.next += o.next
}

// layerOf returns the layer prefix of a span name.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: a span's duration
// minus the part of it its children cover (children never overlap their
// siblings, since one goroutine records one tracer's spans).
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// write stores the spans as JSON, sorted by start time.
func (t *tracer) write(path string) error {
	sort.SliceStable(t.spans, func(i, j int) bool { return t.spans[i].Start < t.spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
