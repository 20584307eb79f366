package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSelfTimeFromNestedSpans checks self time is a span's duration
// minus the union of its children's intervals, clipped to the span.
func TestSelfTimeFromNestedSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "audit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "http", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "term", Start: 20, End: 50}, // overlaps http: counted once
		{ID: 4, Parent: 1, Name: "le", Start: 90, End: 120},  // runs past its parent: clipped
		{ID: 5, Parent: 3, Name: "snapshot", Start: 25, End: 35},
	}
	self := SelfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("span %d self %d, want %d", id, self[id], want)
		}
	}
	rows := SelfTable(spans)
	if rows[0].Name != "audit" || rows[0].Self != 50 || rows[0].Total != 100 {
		t.Errorf("first row %+v, want audit with self 50 of 100", rows[0])
	}
}

// TestTracerRecordsParents checks live spans carry their parent and
// request, and that a nil tracer records nothing.
func TestTracerRecordsParents(t *testing.T) {
	tr := NewTracer()
	root := tr.Start("root", 0, 7)
	child := tr.Start("child", root.ID(), 7)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()
	spans := tr.Spans()
	if len(spans) != 2 || spans[0].Name != "child" || spans[0].Parent != root.ID() || spans[0].Req != 7 {
		t.Fatalf("spans %+v", spans)
	}
	if self := SelfTimes(spans)[root.ID()]; self >= spans[1].Dur() {
		t.Errorf("root self %v not below its duration %v", self, spans[1].Dur())
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil || strings.Count(string(data), "\n") != 2 {
		t.Errorf("wrote %q, %v", data, err)
	}

	var off *Tracer
	sp := off.Start("x", 0, 0)
	if sp.ID() != 0 || sp.End() != 0 || off.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}
