package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNs: 0, EndNs: 100},
		// Two children that overlap in [30,40) and leave gaps at
		// [0,10), [60,70) and [90,100).
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},
		{ID: 4, Parent: 1, StartNs: 70, EndNs: 90},
		// Nested under a child, covering it only in part.
		{ID: 5, Parent: 2, StartNs: 15, EndNs: 25},
		// A child inside another child's interval adds nothing.
		{ID: 6, Parent: 1, StartNs: 75, EndNs: 80},
		// A child that sticks out of its parent is clipped.
		{ID: 7, Parent: 4, StartNs: 85, EndNs: 120},
	}
	want := map[int]int64{1: 30, 2: 20, 3: 30, 4: 15, 5: 10, 6: 5, 7: 35}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestTraceRoundTrip(t *testing.T) {
	tr := newTracer()
	root := tr.begin(1, 0, "bench", "replay")
	kid := tr.begin(1, root, "core", "core.Key")
	tr.end(kid)
	tr.end(root)
	tr.add(1, 0, "serve", "serve.handler", tr.epoch, 42)
	want := traceFile{Workload: "tiny_hot", Seed: 9, Spans: tr.spans}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("read back %+v, wrote %+v", got, want)
	}
	if s := got.Spans[2]; s.Parent != 0 || s.dur() != 42 || got.Spans[1].Parent != root {
		t.Errorf("spans lost their shape: %+v", got.Spans)
	}

	var off *tracer
	off.end(off.begin(1, 0, "bench", "replay"))
	if off.add(1, 0, "serve", "serve.handler", tr.epoch, 1) != 0 {
		t.Error("a nil tracer recorded a span")
	}
}
