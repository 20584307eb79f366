package main

import (
	"io/fs"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ingest"
	"repro/internal/store"
	"repro/internal/wire"
)

// counters is a snapshot of every public counter the benchmark reads
// around a timed phase: the listeners' Stats, the stores' Stats, the
// wire buffer pool and the Go runtime.
type counters struct {
	at     time.Time
	ingest ingest.Stats
	store  store.Stats
	pool   wire.BufPoolStats
	mem    runtime.MemStats
}

// snapshot sums the counters of the given listeners and stores.
func snapshot(ings []*ingest.Server, sts []*store.Store) counters {
	c := counters{at: time.Now(), pool: wire.PoolStats()}
	for _, s := range ings {
		st := s.Stats()
		c.ingest.Requests += st.Requests
		c.ingest.Records += st.Records
		c.ingest.Commits += st.Commits
		c.ingest.Rejects += st.Rejects
		c.ingest.ConnFails += st.ConnFails
		c.ingest.DedupReplays += st.DedupReplays
	}
	for _, s := range sts {
		st := s.Stats()
		c.store.Appends += st.Appends
		c.store.AppendedBytes += st.AppendedBytes
		c.store.Rotations += st.Rotations
		c.store.SessionCompactions += st.SessionCompactions
		c.store.Audits += st.Audits
		c.store.AuditFailures += st.AuditFailures
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// layerDeltas reports the per-layer counter metrics of a timed phase
// that acked records records.
func (r *Run) layerDeltas(before, after counters, records uint64) {
	secs := after.at.Sub(before.at).Seconds()
	in := func(f func(ingest.Stats) uint64) float64 { return float64(f(after.ingest) - f(before.ingest)) }
	commits := in(func(s ingest.Stats) uint64 { return s.Commits })
	r.Layer("ingest.requests_per_commit", ratio(in(func(s ingest.Stats) uint64 { return s.Requests }), commits))
	r.Layer("ingest.records_per_commit", ratio(in(func(s ingest.Stats) uint64 { return s.Records }), commits))
	r.Layer("ingest.commits_per_s", ratio(commits, secs))
	r.Layer("ingest.rejects", in(func(s ingest.Stats) uint64 { return s.Rejects }))
	r.Layer("ingest.conn_fails", in(func(s ingest.Stats) uint64 { return s.ConnFails }))
	r.Layer("ingest.dedup_replays", in(func(s ingest.Stats) uint64 { return s.DedupReplays }))

	r.Layer("store.bytes_per_record", ratio(float64(after.store.AppendedBytes-before.store.AppendedBytes), float64(after.store.Appends-before.store.Appends)))
	r.Layer("store.rotations", float64(after.store.Rotations-before.store.Rotations))
	r.Layer("store.session_compactions", float64(after.store.SessionCompactions-before.store.SessionCompactions))

	hits := float64(after.pool.Hits - before.pool.Hits)
	misses := float64(after.pool.Misses - before.pool.Misses)
	r.Layer("wire.pool_gets", hits+misses)
	r.Layer("wire.pool_hit_ratio", ratio(hits, hits+misses))

	r.Layer("go.allocs_per_record", ratio(float64(after.mem.Mallocs-before.mem.Mallocs), float64(records)))
	r.Layer("go.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC))
	r.Layer("go.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6)
}

// liveHeapMiB forces a collection and reports the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// timeRecovery opens the closed store at dir setupRepeats times and
// reports the fastest open and the last opened store, which the caller
// verifies and closes. Recovery is CPU and page-cache work that host
// contention can only slow down, so the fastest open is the steadiest
// estimate of its cost.
func timeRecovery(dir string, opts store.Options) (*store.Store, float64, error) {
	var (
		best float64
		st   *store.Store
	)
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.Close(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC() // each open starts from a collected heap
		t0 := time.Now()
		s, err := store.Open(dir, opts)
		if err != nil {
			return nil, 0, err
		}
		if d := time.Since(t0).Seconds(); i == 0 || d < best {
			best = d
		}
		st = s
	}
	return st, best, nil
}

// spanSummary reduces every span of one name.
func (r *Run) spanSummary(name string) Summary { return Summarize(r.Trace.Durations(name)) }
