// Command perfbench is the repository's end-to-end benchmark. It runs
// one seeded workload in-process against the real layers (store,
// ingest listener, provclient, provd's HTTP surface, the cluster
// routing client and merged read plane, a replica) over loopback TCP,
// checks that every output is correct, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Untraced runs (-trace 0) report the end-to-end metrics; a traced run
// (-trace 1) records spans around the benchmark's calls into each
// layer, reads each layer's counters, and reports the per-layer
// metrics. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Run is one workload execution: its inputs, and everything it reports.
type Run struct {
	Workload string
	Seed     uint64
	Seconds  int
	Trace    *Tracer // nil in an untraced run
	Dir      string  // scratch directory for stores, removed at exit

	config    [][2]string
	e2e       map[string]float64
	layer     map[string]float64
	notes     []string
	checks    []checkResult
	attempted int
	failed    int
}

type checkResult struct {
	name string
	ok   bool
}

// Config records one fact about the run's configuration.
func (r *Run) Config(key string, v any) {
	r.config = append(r.config, [2]string{key, fmt.Sprint(v)})
}

// E2E sets an end-to-end metric.
func (r *Run) E2E(name string, v float64) {
	if _, ok := unitOf(endToEnd, name); !ok {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	r.e2e[name] = v
}

// Layer sets a per-layer metric.
func (r *Run) Layer(name string, v float64) {
	if _, ok := unitOf(perLayer, name); !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	r.layer[name] = v
}

// Note prints a line of detail with the results.
func (r *Run) Note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// Check records a correctness check; a failed check makes the run
// incorrect.
func (r *Run) Check(name string, ok bool) { r.checks = append(r.checks, checkResult{name, ok}) }

// Ops counts operations attempted and failed (failed, refused or
// wrong-answer).
func (r *Run) Ops(res StreamResult) {
	r.attempted += res.Attempts
	r.failed += res.Failed
}

// latency reports a stream's windows: the median as the metric
// <prefix>_p50_ms, and a note with the median, the tail, the tail's
// percentile and the sample count.
func (r *Run) latency(prefix, label string, ws [][]time.Duration) {
	w := SummarizeWindows(ws)
	r.E2E(prefix+"_p50_ms", ms(w.P50))
	r.Note("%s: p50 %.3f ms, p%.4g %.3f ms, medians over %d windows of %d samples in all",
		label, ms(w.P50), w.TailPct, ms(w.Tail), len(ws), w.N)
}

// setupRepeats is how many times a run builds its setup; setup_s is the
// median, and the last build is the one measured.
const setupRepeats = 5

// timedSetup builds the workload's setup setupRepeats times, tearing
// down all but the last, and records the median build time. Teardown
// must remove what the build wrote.
func timedSetup[T any](r *Run, build func(i int) (T, error), teardown func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		runtime.GC() // each build starts from a collected heap
		t0 := time.Now()
		v, err := build(i)
		if err != nil {
			return last, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			teardown(v)
		}
		last = v
	}
	r.E2E("setup_s", medianF(times))
	runtime.GC() // the timed phase starts from a collected heap
	return last, nil
}

// manualOnly are workloads BENCHMARK.json leaves out: they run by hand
// but are too unsteady on a shared sandbox to gate a change (see
// README.md).
var manualOnly = map[string]bool{"ingest-durable": true}

var workloads = map[string]func(*Run) error{
	"ingest-durable": runIngestDurable,
	"audit-deep":     runAuditDeep,
	"fleet-mixed":    runFleetMixed,
}

// buildDir is where the benchmark keeps everything it writes, relative
// to the repository root it runs from.
const buildDir = ".bench_build"

func main() {
	workload := flag.String("workload", "", "workload to run: ingest-durable, audit-deep or fleet-mixed")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload ingest-durable|audit-deep|fleet-mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	correct, err := run(*workload, fn, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// run executes one workload and prints its results, reporting whether
// every check passed.
func run(workload string, fn func(*Run) error, seed uint64, seconds int, traced bool) (bool, error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "work"), 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp(filepath.Join(buildDir, "work"), workload+"-*")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	r := &Run{Workload: workload, Seed: seed, Seconds: seconds, Dir: dir,
		e2e: map[string]float64{}, layer: map[string]float64{}}
	if traced {
		r.Trace = NewTracer()
	}
	r.Config("workload", workload)
	r.Config("seed", seed)
	r.Config("seconds", seconds)
	r.Config("traced", traced)
	r.Config("nproc", runtime.NumCPU())
	r.Config("gomaxprocs", runtime.GOMAXPROCS(0))
	r.Config("go", runtime.Version())
	r.Config("goos/goarch", runtime.GOOS+"/"+runtime.GOARCH)
	if err := fn(r); err != nil {
		return false, err
	}
	return report(r)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the configuration, notes, metrics and checks, then the
// result line, and reports whether the run was correct.
func report(r *Run) (bool, error) {
	defs := endToEnd
	vals := r.e2e
	if r.Trace != nil {
		defs, vals = perLayer, r.layer
		if err := traceReport(r); err != nil {
			return false, err
		}
	} else {
		for _, d := range endToEnd {
			if _, ok := r.e2e[d.Name]; !ok {
				return false, fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
			}
		}
		saveUntraced(r)
	}
	fmt.Printf("perfbench %s\n", r.Workload)
	for _, kv := range r.config {
		fmt.Printf("  config %-24s %s\n", kv[0], kv[1])
	}
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	metrics := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := vals[d.Name]
		metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Printf("  metric %-34s %14.6g %-6s (%s is better)\n", d.Name, v, d.Unit, d.Better)
	}
	correct := r.failed == 0
	for _, c := range r.checks {
		mark := "ok  "
		if !c.ok {
			mark, correct = "FAIL", false
		}
		fmt.Printf("  check %s %s\n", mark, c.name)
	}
	fmt.Printf("  failed_ratio %.6g (%d failed of %d attempted)\n", ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	out, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{correct, max(r.attempted, 1), r.failed, metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(out))
	return correct, nil
}

// saveUntraced keeps an untraced run's end-to-end numbers so a later
// traced run of the same workload can state its overhead against them.
func saveUntraced(r *Run) {
	data, err := json.Marshal(r.e2e)
	if err != nil {
		return
	}
	// Best effort: without it a traced run only says it has nothing to
	// compare with.
	_ = os.WriteFile(filepath.Join(buildDir, "last-"+r.Workload+".json"), data, 0o644)
}

// traceReport writes the spans, prints the self-time table and the
// tracing overhead.
func traceReport(r *Run) error {
	spans := r.Trace.Spans()
	if err := os.MkdirAll(filepath.Join(buildDir, "trace"), 0o755); err != nil {
		return err
	}
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.Workload, r.Seed))
	if err := r.Trace.WriteFile(path); err != nil {
		return err
	}
	r.Note("trace: %d spans written to %s", len(spans), path)
	r.Note("%-34s %8s %12s %12s", "span", "count", "total ms", "self ms")
	for _, row := range SelfTable(spans) {
		r.Note("%-34s %8d %12.3f %12.3f", row.Name, row.Count, ms(row.Total), ms(row.Self))
	}
	cost := spanCost()
	r.Layer("trace.spans", float64(len(spans)))
	r.Layer("trace.overhead_share", ratio(float64(len(spans))*float64(cost), float64(time.Duration(r.Seconds)*time.Second)))
	r.Note("trace: recording one span costs %v on this host", cost)
	// The traced end-to-end numbers against the last untraced run of
	// the same workload in this checkout, when there is one.
	var untraced map[string]float64
	if data, err := os.ReadFile(filepath.Join(buildDir, "last-"+r.Workload+".json")); err == nil && json.Unmarshal(data, &untraced) == nil {
		names := make([]string, 0, len(r.e2e))
		for n := range r.e2e {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		for _, n := range names {
			if u, ok := untraced[n]; ok && u != 0 {
				fmt.Fprintf(&b, " %s %.3gx", n, r.e2e[n]/u)
			}
		}
		r.Note("trace overhead, traced/untraced end-to-end:%s", b.String())
	} else {
		r.Note("trace overhead: no untraced run of %s in this checkout to compare with", r.Workload)
	}
	return nil
}
