package store

import (
	"sort"

	"repro/internal/logs"
	"repro/internal/wire"
)

// Whole-store views: the principal census, the record count and the
// log spines audits run against. Bounded record reads go through the
// Scan* primitives (scan.go) or the typed query engine (internal/query).

// Principals returns the principals with at least one shard, sorted.
func (s *Store) Principals() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.shards))
	for p := range s.shards {
		out = append(out, p)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the total number of stored records. Served from the
// atomically mirrored per-shard counts, so it takes no stripe lock.
func (s *Store) Len() int {
	s.mu.RLock()
	n := 0
	for _, sh := range s.shards {
		n += int(sh.count.Load())
	}
	s.mu.RUnlock()
	return n
}

// globalSnapshot returns the merged cross-shard view — records oldest
// first, the log spine, and its hole-free ceiling upTo: every record in
// the view has a sequence number below upTo, and every number below
// upTo is either in the view or permanently dead. It folds only the
// records appended since the last call into the cached merge. The
// zero-append case — an audit service over a quiescent or restarted
// store — is O(1) after the first merge; a mixed append/audit workload
// pays O(new records · log(new)), never a from-scratch O(total log)
// rebuild. Callers must not mutate the returned slice.
//
// Why the increment is sound: while every stripe is held, no append can
// be mid-flight (sequence numbers are assigned under the acting
// principal's stripe, and the record lands in its shard before that
// stripe is released), so every sequence number a future append will
// use is strictly greater than any record visible now. Consuming each
// shard's unvisited suffix and merging the union by sequence number
// therefore always extends the cached merge monotonically — later
// refreshes can only append records with higher sequence numbers, never
// insert below ones already folded in. (A gap in the visible sequence
// numbers — an append that assigned a number and then failed its disk
// write — is permanently dead for the same reason, so the merge skips
// it exactly as the old full rebuild did.)
func (s *Store) globalSnapshot() ([]wire.Record, logs.Log, uint64) {
	s.global.mu.Lock()
	defer s.global.mu.Unlock()
	g := &s.global
	if s.nextSeq.Load() == g.upTo && g.log != nil {
		return g.recs, g.log, g.upTo // quiescent store: no stripe is touched
	}
	if g.b == nil {
		g.b = logs.NewBuilder()
		g.consumed = make(map[string]int)
	}
	// Hold every stripe while collecting: releasing one stripe before
	// locking the next would let an append assign seq N on a visited
	// shard while seq N+1 lands on an unvisited one, merging a log
	// with a hole — a state that never existed, against which a
	// Definition-3 audit could return a wrong verdict. Stripes are
	// always taken in index order here (as in AppendBatch) and singly
	// everywhere else, so this cannot deadlock.
	for i := range s.stripes {
		s.stripes[i].Lock()
	}
	var fresh []wire.Record
	for _, sh := range s.snapshotShards() {
		if c := g.consumed[sh.principal]; c < len(sh.recs) {
			fresh = append(fresh, sh.recs[c:]...)
			g.consumed[sh.principal] = len(sh.recs)
		}
	}
	// Re-read the counter under the stripes: everything at or below it
	// is now folded in, so the next quiescent query is the O(1) path.
	target := s.nextSeq.Load()
	for i := range s.stripes {
		s.stripes[i].Unlock()
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].Seq < fresh[j].Seq })
	g.recs = append(g.recs, fresh...)
	for _, r := range fresh {
		g.b.Append(r.Act)
	}
	g.log = g.b.Log()
	g.upTo = target
	return g.recs, g.log, g.upTo
}

// ShardLog returns one principal's actions as a log spine (most recent
// action at the head). Note the shard log alone cannot justify
// cross-principal provenance chains; use GlobalLog for Definition-3
// audits.
func (s *Store) ShardLog(principal string) logs.Log {
	recs := s.ScanShardTail(principal, Filter{}, 0, -1)
	acts := make([]logs.Action, len(recs))
	for i, r := range recs {
		acts[i] = r.Act
	}
	return logs.Spine(acts)
}

// GlobalLog reconstructs the global monitor log φ: the spine of all
// stored actions in sequence order, most recent first — exactly the log
// a runtime.Net mirroring into this store holds in memory.
func (s *Store) GlobalLog() logs.Log {
	_, l, _ := s.globalSnapshot()
	return l
}
