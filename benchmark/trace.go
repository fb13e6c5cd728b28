package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one request share its
// request number; parent is the id of the span that caused this one, 0
// for a request's root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced replay runs the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(request, parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request,
		Layer: layer, Name: name, StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNs = int64(time.Since(t.epoch))
}

// add records a span whose interval was timed by the caller.
func (t *tracer) add(request, parent int, layer, name string, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	s := int64(start.Sub(t.epoch))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Request: request,
		Layer: layer, Name: name, StartNs: s, EndNs: s + int64(d),
	})
	return len(t.spans)
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval its children cover: children may overlap each other and
// may leave gaps, so the covered part is the union of their intervals
// clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// traceFile is the JSON written to benchmark/out/trace-<workload>.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readTrace(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	err = json.Unmarshal(data, &tf)
	return tf, err
}
