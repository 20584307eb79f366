package store

import (
	"sort"

	"repro/internal/logs"
	"repro/internal/wire"
)

// Bounded scan primitives: the storage half of the query engine
// (internal/query). A shard scan locks one stripe, binary-searches the
// shard's in-memory indexes to the requested sequence window, copies out
// at most max records, and unlocks — so the lock hold and the copy are
// proportional to the examined slice of the narrowest matching index
// (for single-dimension filters, exactly the batch returned), never to
// the shard. An unfiltered global scan takes no stripe at all: it is
// served from the cached global merge. A filtered global scan takes each
// stripe only to copy one shard's slice headers, then merges the shards'
// index windows lock-free: O(shards) header copies under lock, plus
// O(page × log shards) merge work and copies. The engine composes these
// into paginated, cursor-stable result sets; the legacy Store query
// methods (query.go) are thin wrappers over the same calls.

// Filter selects records within a shard scan. The zero Filter matches
// everything.
type Filter struct {
	// Channel, when nonempty, selects snd/rcv records on this channel
	// (served from the shard's channel index).
	Channel string
	// Kind, when KindSet, selects records of one action kind (served
	// from the shard's kind index when Channel is empty).
	Kind    logs.ActKind
	KindSet bool
}

// matches reports whether a record passes the filter (used on top of an
// index walk when both dimensions are constrained).
func (f Filter) matches(r wire.Record) bool {
	if f.KindSet && r.Act.Kind != f.Kind {
		return false
	}
	return true
}

// idxView is one shard's record positions matching a filter's indexed
// dimension, in ascending sequence order. It holds copies of the shard's
// slice headers, taken under the stripe lock: shards are append-only once
// open, so the view stays valid after the lock is released. direct means
// positions are the identity (the whole shard).
type idxView struct {
	recs   []wire.Record
	idx    []int // nil when direct
	direct bool
}

// view resolves the filter to the narrowest index; the caller holds the
// shard's stripe lock. Returns ok=false for a filter that can match
// nothing: an out-of-range kind, or a channel filter intersected with a
// kind the channel index never holds (only snd/rcv records are
// channel-indexed) — without the latter shortcut, a hostile
// chan+kind=ift query would walk a whole channel index to return
// nothing.
func view(sh *shard, f Filter) (idxView, bool) {
	if f.KindSet && (f.Kind < 0 || int(f.Kind) >= len(sh.byKind)) {
		return idxView{}, false
	}
	switch {
	case f.Channel != "":
		if f.KindSet && f.Kind != logs.Snd && f.Kind != logs.Rcv {
			return idxView{}, false
		}
		return idxView{recs: sh.recs, idx: sh.byChan[f.Channel]}, true
	case f.KindSet:
		return idxView{recs: sh.recs, idx: sh.byKind[int(f.Kind)]}, true
	default:
		return idxView{recs: sh.recs, direct: true}, true
	}
}

func (v idxView) len() int {
	if v.direct {
		return len(v.recs)
	}
	return len(v.idx)
}

func (v idxView) seqAt(i int) uint64 {
	if v.direct {
		return v.recs[i].Seq
	}
	return v.recs[v.idx[i]].Seq
}

func (v idxView) recAt(i int) wire.Record {
	if v.direct {
		return v.recs[i]
	}
	return v.recs[v.idx[i]]
}

// window binary-searches the view to the positions holding sequence
// numbers in [from, ceil) — ceil 0 means unbounded. Index entries are
// appended in sequence order, so the view is sorted by seq.
func (v idxView) window(from, ceil uint64) (lo, hi int) {
	lo = sort.Search(v.len(), func(i int) bool { return v.seqAt(i) >= from })
	hi = v.len()
	if ceil > 0 {
		hi = sort.Search(v.len(), func(i int) bool { return v.seqAt(i) >= ceil })
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi
}

// ScanShard copies up to max of one principal's records matching f with
// sequence numbers in [from, ceil), ascending; ceil 0 means unbounded,
// max < 0 means all. The stripe lock is held only for the index search
// and the bounded copy.
func (s *Store) ScanShard(principal string, f Filter, from, ceil uint64, max int) []wire.Record {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil || max == 0 {
		return nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	defer st.Unlock()
	v, ok := view(sh, f)
	if !ok {
		return nil
	}
	lo, hi := v.window(from, ceil)
	var out []wire.Record
	for i := lo; i < hi; i++ {
		r := v.recAt(i)
		if !f.matches(r) {
			continue
		}
		out = append(out, r)
		if max > 0 && len(out) == max {
			break
		}
	}
	return out
}

// ScanShardTail copies the n most recent of one principal's records
// matching f with sequence numbers below ceil (0 = unbounded),
// ascending; n < 0 means all. Like ScanShard, the lock is held for the
// tail only.
func (s *Store) ScanShardTail(principal string, f Filter, ceil uint64, n int) []wire.Record {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil || n == 0 {
		return nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	defer st.Unlock()
	v, ok := view(sh, f)
	if !ok {
		return nil
	}
	_, hi := v.window(0, ceil)
	var out []wire.Record
	for i := hi - 1; i >= 0; i-- {
		r := v.recAt(i)
		if !f.matches(r) {
			continue
		}
		out = append(out, r)
		if n > 0 && len(out) == n {
			break
		}
	}
	// Collected newest-first; reverse to the ascending order every scan
	// returns.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// ScanGlobal copies up to max records of the merged cross-shard view
// with sequence numbers in [from, ceil), ascending; ceil 0 means
// unbounded, max < 0 means all. Served from the incrementally
// maintained global merge, so a bounded page against a quiescent store
// costs a binary search plus the copy.
func (s *Store) ScanGlobal(from, ceil uint64, max int) []wire.Record {
	if max == 0 {
		return nil
	}
	recs, _, _ := s.globalSnapshot()
	lo := sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= from })
	hi := len(recs)
	if ceil > 0 {
		hi = sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= ceil })
	}
	if hi < lo {
		hi = lo
	}
	if max > 0 && hi-lo > max {
		hi = lo + max
	}
	if lo == hi {
		return nil
	}
	out := make([]wire.Record, hi-lo)
	copy(out, recs[lo:hi])
	return out
}

// ScanGlobalTail copies the n most recent records of the merged view
// with sequence numbers below ceil (0 = unbounded), ascending; n < 0
// means all.
func (s *Store) ScanGlobalTail(ceil uint64, n int) []wire.Record {
	if n == 0 {
		return nil
	}
	recs, _, _ := s.globalSnapshot()
	hi := len(recs)
	if ceil > 0 {
		hi = sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= ceil })
	}
	lo := 0
	if n >= 0 && hi-n > 0 {
		lo = hi - n
	}
	if lo == hi {
		return nil
	}
	out := make([]wire.Record, hi-lo)
	copy(out, recs[lo:hi])
	return out
}

// ScanFiltered copies up to max records of the merged cross-shard view
// matching f with sequence numbers in [from, ceil), ascending; ceil 0
// means unbounded, max < 0 means all. It is the filtered counterpart of
// ScanGlobal, which serves the zero Filter: one k-way merge over the
// shards' index windows that copies only the records it returns.
func (s *Store) ScanFiltered(f Filter, from, ceil uint64, max int) []wire.Record {
	if f.Channel == "" && !f.KindSet {
		return s.ScanGlobal(from, ceil, max)
	}
	if max == 0 {
		return nil
	}
	return merge(s.legs(f, from, ceil), f, false, max)
}

// ScanFilteredTail copies the n most recent records of the merged view
// matching f with sequence numbers below ceil (0 = unbounded),
// ascending; n < 0 means all. It is the filtered counterpart of
// ScanGlobalTail, which serves the zero Filter.
func (s *Store) ScanFilteredTail(f Filter, ceil uint64, n int) []wire.Record {
	if f.Channel == "" && !f.KindSet {
		return s.ScanGlobalTail(ceil, n)
	}
	if n == 0 {
		return nil
	}
	return merge(s.legs(f, 0, ceil), f, true, n)
}

// leg is one shard's part of a filtered global scan: its index view and
// the window [lo, hi) of view positions not yet merged.
type leg struct {
	idxView
	lo, hi int
}

// legs resolves f in every shard and windows each view to [from, ceil),
// dropping empty windows. Each stripe is held only to copy one shard's
// slice headers; the windows are searched and merged with no lock held.
//
// The legs are taken one stripe at a time, yet they form one hole-free
// snapshot because ceil is first capped at the sequence high-water:
// every number below it is already assigned, and an append assigns its
// numbers and lands its records under the acting principal's stripe, so
// a leg taken afterwards holds every such record of its shard. Without
// the cap, a later leg could hold a record newer than one an earlier leg
// missed, and a forward walk resuming past it would skip the older one.
func (s *Store) legs(f Filter, from, ceil uint64) []leg {
	if next := s.nextSeq.Load(); ceil == 0 || ceil > next {
		ceil = next
	}
	if ceil <= from {
		return nil // an empty window; ceil 0 here means an empty store, not "unbounded"
	}
	// Copy the shard list and release s.mu before taking any stripe:
	// globalSnapshot takes s.mu while holding every stripe.
	s.mu.RLock()
	shards := make([]*shard, 0, len(s.shards))
	for _, sh := range s.shards {
		shards = append(shards, sh)
	}
	s.mu.RUnlock()
	legs := make([]leg, 0, len(shards))
	for _, sh := range shards {
		st := s.stripeFor(sh.principal)
		st.Lock()
		v, ok := view(sh, f)
		st.Unlock()
		if !ok {
			return nil // f can match nothing, in any shard
		}
		if lo, hi := v.window(from, ceil); lo < hi {
			legs = append(legs, leg{v, lo, hi})
		}
	}
	return legs
}

// merge walks the legs as one sequence, ascending or (back) newest
// first, through a binary heap of the legs' next sequence numbers. It
// copies out up to n records matching f (n < 0 means all) and returns
// them ascending.
func merge(legs []leg, f Filter, back bool, n int) []wire.Record {
	size := 0
	for _, l := range legs {
		size += l.hi - l.lo
	}
	if n >= 0 && n < size {
		size = n
	}
	if size == 0 {
		return nil
	}
	out := make([]wire.Record, 0, size)
	h := make(legHeap, len(legs))
	for i := range legs {
		h[i] = heapEntry{legs[i].key(back), i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for len(h) > 0 && len(out) != n {
		l := &legs[h[0].leg]
		var r wire.Record
		if back {
			l.hi--
			r = l.recAt(l.hi)
		} else {
			r = l.recAt(l.lo)
			l.lo++
		}
		if f.matches(r) {
			out = append(out, r)
		}
		if l.lo < l.hi {
			h[0].key = l.key(back)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
	}
	if back {
		for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
			out[i], out[j] = out[j], out[i]
		}
	}
	return out
}

// key is the heap key of the leg's next record in the walk: its
// sequence number, complemented for a newest-first walk so that the
// heap is a min-heap either way.
func (l *leg) key(back bool) uint64 {
	if back {
		return ^l.seqAt(l.hi - 1)
	}
	return l.seqAt(l.lo)
}

// heapEntry is one leg's place in the merge heap.
type heapEntry struct {
	key uint64
	leg int
}

// legHeap is a binary min-heap on key: its root is the leg holding the
// walk's next record.
type legHeap []heapEntry

func (h legHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].key < h[c].key {
			c++
		}
		if h[i].key <= h[c].key {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// PrincipalCount is one shard's size in Counts.
type PrincipalCount struct {
	Principal string
	Records   int
}

// Counts is the store's cheap size snapshot: per-principal record
// counts plus the global sequence high-water (the next sequence number
// to be assigned). Unlike a scan it takes no stripe lock at all — the
// counts are mirrored atomically on append — so /metrics and
// /principals can poll it at any rate without touching the write path.
type Counts struct {
	Records    int
	NextSeq    uint64
	Principals []PrincipalCount // sorted by principal
}

// Counts snapshots the per-principal record counts and the sequence
// high-water without locking any stripe.
func (s *Store) Counts() Counts {
	s.mu.RLock()
	out := Counts{Principals: make([]PrincipalCount, 0, len(s.shards))}
	for _, sh := range s.shards {
		n := int(sh.count.Load())
		out.Principals = append(out.Principals, PrincipalCount{Principal: sh.principal, Records: n})
		out.Records += n
	}
	s.mu.RUnlock()
	out.NextSeq = s.nextSeq.Load()
	sort.Slice(out.Principals, func(i, j int) bool { return out.Principals[i].Principal < out.Principals[j].Principal })
	return out
}
