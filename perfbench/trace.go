package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer: name, start,
// end, the span that caused it (0 for a root) and the request it
// belongs to. Times are nanoseconds since the tracer started.
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s Span) Dur() time.Duration { return time.Duration(s.End - s.Start) }

// Tracer keeps spans in memory until the run ends. A nil *Tracer is the
// untraced mode: every method is a no-op, so the timed code paths pay
// one nil check.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []Span
}

func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Open is a started span; End records it.
type Open struct {
	t      *Tracer
	id     uint64
	parent uint64
	req    uint64
	name   string
	start  int64
}

// Start opens a span. The id is allocated now so children can name it
// as their parent before it ends.
func (t *Tracer) Start(name string, parent, req uint64) Open {
	if t == nil {
		return Open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return Open{t: t, id: id, parent: parent, req: req, name: name, start: int64(time.Since(t.t0))}
}

// ID is the span's id (0 when untraced), for children to name.
func (o Open) ID() uint64 { return o.id }

// End closes the span and returns its duration.
func (o Open) End() time.Duration {
	if o.t == nil {
		return 0
	}
	end := int64(time.Since(o.t.t0))
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, Span{ID: o.id, Parent: o.parent, Req: o.req, Name: o.name, Start: o.start, End: end})
	o.t.mu.Unlock()
	return time.Duration(end - o.start)
}

// Spans returns a copy of the recorded spans in end order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Durations returns the durations of every span with the given name.
func (t *Tracer) Durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.Spans() {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// SelfTimes maps each span id to its self time: the span's duration
// minus the part of its interval that its children cover. Overlapping
// children (concurrent calls under one parent) count once.
func SelfTimes(spans []Span) map[uint64]time.Duration {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered, hi int64
		hi = s.Start
		for _, c := range cs {
			lo, end := max(c.Start, hi), min(c.End, s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[s.ID] = s.Dur() - time.Duration(covered)
	}
	return out
}

// SelfRow is one span name's totals in the self-time table.
type SelfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// SelfTable sums total and self time per span name, largest self first.
func SelfTable(spans []Span) []SelfRow {
	self := SelfTimes(spans)
	rows := map[string]*SelfRow{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &SelfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += s.Dur()
		r.Self += self[s.ID]
	}
	out := make([]SelfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
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

// spanCost measures what recording one span costs on this host, so a
// traced run can state how much of its wall time the tracer itself
// took.
func spanCost() time.Duration {
	const n = 20000
	t := NewTracer()
	start := time.Now()
	for i := 0; i < n; i++ {
		t.Start("calibrate", 0, 0).End()
	}
	return time.Since(start) / n
}
