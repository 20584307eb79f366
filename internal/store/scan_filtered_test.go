package store_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/wire"
)

// Differential suite for the filtered global scans: ScanFiltered and
// ScanFilteredTail must return exactly what the plan they replaced
// returns — every shard's ScanShard or ScanShardTail with the same
// filter and window, sorted by sequence number, then trimmed to the
// page. That plan survives only here, as the oracle. Failures name
// their seed; REPRO_SEED=<n> replays one alone.

// perShard is the replaced plan for ScanFiltered.
func perShard(s *store.Store, f store.Filter, from, ceil uint64, max int) []wire.Record {
	var merged []wire.Record
	for _, p := range s.Principals() {
		merged = append(merged, s.ScanShard(p, f, from, ceil, max)...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	if max >= 0 && len(merged) > max {
		merged = merged[:max]
	}
	return merged
}

// perShardTail is the replaced plan for ScanFilteredTail.
func perShardTail(s *store.Store, f store.Filter, ceil uint64, n int) []wire.Record {
	var merged []wire.Record
	for _, p := range s.Principals() {
		merged = append(merged, s.ScanShardTail(p, f, ceil, n)...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Seq < merged[j].Seq })
	if n >= 0 && len(merged) > n {
		merged = merged[len(merged)-n:]
	}
	return merged
}

// genScanLog generates n actions over principals p0..p{principals-1}.
// p0 only runs ift/iff, so no channel filter matches its shard; only p1
// uses channel c2; and the variable x stands in channel position
// everywhere, while no channel is named x — the channel index holds
// names only, so a filter on x matches nothing.
func genScanLog(rng *rand.Rand, principals, n int) []logs.Action {
	acts := make([]logs.Action, n)
	for i := range acts {
		p := rng.Intn(principals)
		name := fmt.Sprintf("p%d", p)
		v := logs.NameT(fmt.Sprintf("v%d", rng.Intn(5)))
		if p == 0 || rng.Intn(5) == 0 {
			acts[i] = logs.Action{Principal: name, Kind: logs.IfT + logs.ActKind(rng.Intn(2)), A: v, B: v}
			continue
		}
		var ch logs.Term
		switch c := rng.Intn(4); {
		case c == 3:
			ch = logs.VarT("x")
		case c == 2 && p != 1:
			ch = logs.NameT("c0")
		default:
			ch = logs.NameT(fmt.Sprintf("c%d", c))
		}
		acts[i] = logs.Action{Principal: name, Kind: logs.ActKind(rng.Intn(2)), A: ch, B: v}
	}
	return acts
}

// scanFilters are the filters the differential covers: the zero filter
// (served by the unfiltered global scans), each channel alone and with
// every kind (ift/iff never pass a channel filter), each kind alone,
// and an out-of-range kind.
func scanFilters() []store.Filter {
	fs := []store.Filter{{}}
	for _, ch := range []string{"c0", "c1", "c2", "x", "absent"} {
		fs = append(fs, store.Filter{Channel: ch})
		for k := logs.Snd; k <= logs.IfF; k++ {
			fs = append(fs, store.Filter{Channel: ch, Kind: k, KindSet: true})
		}
	}
	for k := logs.Snd; k <= logs.IfF; k++ {
		fs = append(fs, store.Filter{Kind: k, KindSet: true})
	}
	return append(fs, store.Filter{Kind: 9, KindSet: true})
}

// checkScans compares both filtered scans with the per-shard plan on
// every filter, over windows at the log's edges and inside it, and page
// sizes -1, 0, 1, exact (the whole window's match count) and random.
func checkScans(t *testing.T, s *store.Store, rng *rand.Rand) {
	t.Helper()
	next := s.NextSeq()
	bounds := []uint64{0, 1, next / 3, next / 2, next - 1, next, next + 3}
	for _, f := range scanFilters() {
		for _, ceil := range bounds {
			for _, from := range bounds {
				all := perShard(s, f, from, ceil, -1)
				for _, max := range []int{-1, 0, 1, len(all), rng.Intn(len(all) + 2)} {
					if got, want := s.ScanFiltered(f, from, ceil, max), perShard(s, f, from, ceil, max); !slices.Equal(got, want) {
						t.Fatalf("ScanFiltered(%+v, %d, %d, %d) = %v, per-shard plan %v", f, from, ceil, max, got, want)
					}
				}
			}
			all := perShardTail(s, f, ceil, -1)
			for _, n := range []int{-1, 0, 1, len(all), rng.Intn(len(all) + 2)} {
				if got, want := s.ScanFilteredTail(f, ceil, n), perShardTail(s, f, ceil, n); !slices.Equal(got, want) {
					t.Fatalf("ScanFilteredTail(%+v, %d, %d) = %v, per-shard plan %v", f, ceil, n, got, want)
				}
			}
		}
	}
}

// TestScanFilteredMatchesPerShard: on seeded logs the filtered scans
// agree with the per-shard plan, on an empty store, on the full log and
// on the same log after the store is reopened.
func TestScanFilteredMatchesPerShard(t *testing.T) {
	for _, seed := range testutil.Seeds(t, 20261017, 6) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := testutil.Rand(seed)
			dir := t.TempDir()
			opts := store.Options{Stripes: 4, SegmentBytes: 4096}
			s, err := store.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkScans(t, s, rng)
			appendInBatches(t, s, rng, genScanLog(rng, 6, 300))
			if len(s.ScanFiltered(store.Filter{Channel: "c2"}, 0, 0, -1)) == 0 {
				t.Fatal("the generated log never uses c2: the suite needs a channel with matches")
			}
			checkScans(t, s, rng)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = store.Open(dir, opts); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			checkScans(t, s, rng)
		})
	}
}

// TestScanFilteredConcurrentAppend pages through the filtered scans
// while other goroutines append batches (run it under -race). A page
// cannot be compared with the per-shard plan at its own snapshot from
// outside, but appends only add records above every sequence number
// already visible. So a forward page from `from` must be a prefix of the
// final log's matches from `from`, at least as long as the page the log
// before the appends would give; and a tail page must be the newest
// matches below some point of the final log at or past where the log
// stood before the appends.
func TestScanFilteredConcurrentAppend(t *testing.T) {
	seed := testutil.Seed(t, 7)
	rng := testutil.Rand(seed)
	acts := genScanLog(rng, 8, 4000)
	s, err := store.Open(t.TempDir(), store.Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	half := len(acts) / 2
	appendInBatches(t, s, rng, acts[:half])
	filters := []store.Filter{
		{Channel: "c0"},
		{Channel: "c1", Kind: logs.Rcv, KindSet: true},
		{Kind: logs.IfT, KindSet: true},
	}
	before := make([][]wire.Record, len(filters))
	for i, f := range filters {
		before[i] = perShard(s, f, 0, 0, -1)
	}

	// Two writers split the rest of the log by position; each keeps its
	// own share in order. Reads repeat until both are done.
	rest := acts[half:]
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []logs.Action
			for i := g; i < len(rest); i += 2 {
				mine = append(mine, rest[i])
			}
			for len(mine) > 0 {
				n := min(1+len(mine)%7, len(mine))
				if _, err := s.AppendBatch(mine[:n]); err != nil {
					t.Error(err)
					return
				}
				mine = mine[n:]
				runtime.Gosched() // let the reader in between batches
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var pages []scanPage
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for i, f := range filters {
			n := []int{1, 7, 64, -1}[rng.Intn(4)]
			from := uint64(rng.Intn(len(acts)))
			pages = append(pages,
				scanPage{filter: i, from: from, n: n, recs: s.ScanFiltered(f, from, 0, n)},
				scanPage{filter: i, back: true, n: n, recs: s.ScanFilteredTail(f, 0, n)})
		}
	}

	t.Logf("%d pages read", len(pages))
	for i, f := range filters {
		after := perShard(s, f, 0, 0, -1)
		if got := s.ScanFiltered(f, 0, 0, -1); !slices.Equal(got, after) {
			t.Fatalf("filter %+v on the quiescent store: %d records, per-shard plan %d", f, len(got), len(after))
		}
		if len(after) <= len(before[i]) {
			t.Fatalf("filter %+v: no matching record was appended during the reads", f)
		}
		checkConcurrentPages(t, f, before[i], after, pages, i)
	}
}

// scanPage is one page read during TestScanFilteredConcurrentAppend:
// filters[filter] scanned forward from `from`, or as a tail (back), for
// at most n records.
type scanPage struct {
	filter int
	back   bool
	from   uint64
	n      int
	recs   []wire.Record
}

// checkConcurrentPages holds each page of filter fi to the bounds
// TestScanFilteredConcurrentAppend states, given the filter's matches
// before and after the appends.
func checkConcurrentPages(t *testing.T, f store.Filter, before, after []wire.Record, pages []scanPage, fi int) {
	t.Helper()
	// fromSeq returns the suffix of recs at or above seq.
	fromSeq := func(recs []wire.Record, seq uint64) []wire.Record {
		return recs[sort.Search(len(recs), func(i int) bool { return recs[i].Seq >= seq }):]
	}
	capped := func(n, have int) int {
		if n < 0 || n > have {
			return have
		}
		return n
	}
	for _, p := range pages {
		if p.filter != fi {
			continue
		}
		if !p.back {
			want := fromSeq(after, p.from)
			if len(p.recs) > len(want) || !slices.Equal(p.recs, want[:len(p.recs)]) {
				t.Fatalf("filter %+v: forward page from %d (max %d), %s, is not a prefix of the final log's matches", f, p.from, p.n, span(p.recs))
			}
			if least := capped(p.n, len(fromSeq(before, p.from))); len(p.recs) < least {
				t.Fatalf("filter %+v: forward page from %d (max %d) has %d records, the log before the appends gave %d", f, p.from, p.n, len(p.recs), least)
			}
			continue
		}
		if len(p.recs) == 0 {
			t.Fatalf("filter %+v: empty tail page (n %d) of a log that had matches", f, p.n)
		}
		start := len(after) - len(fromSeq(after, p.recs[0].Seq))
		end := start + len(p.recs)
		if end > len(after) || !slices.Equal(p.recs, after[start:end]) {
			t.Fatalf("filter %+v: tail page (n %d), %s, is not a run of the final log's matches", f, p.n, span(p.recs))
		}
		if end < len(before) || len(p.recs) != capped(p.n, end) {
			t.Fatalf("filter %+v: tail page (n %d) ends at match %d with %d records; the log before the appends had %d matches", f, p.n, end, len(p.recs), len(before))
		}
	}
}

// span summarises a page for a failure message.
func span(recs []wire.Record) string {
	if len(recs) == 0 {
		return "0 records"
	}
	return fmt.Sprintf("%d records at seqs %d..%d", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
}

// FuzzScanFilteredVsPerShard drives the same differential with a small
// log and windows decoded from the fuzzer's bytes: up to 24 actions by
// three principals over four kinds and a handful of terms (variables
// and ? included), then (filter, from, ceil, n) tuples from the rest.
func FuzzScanFilteredVsPerShard(f *testing.F) {
	f.Add([]byte{6, 0, 0, 0, 1, 1, 1, 0, 2, 2, 0, 1, 6, 0, 2, 1, 3, 1, 0, 0, 1, 2, 1, 5, 3})
	f.Add([]byte{9, 1, 0, 5, 0, 2, 1, 6, 1, 0, 1, 1, 2, 2, 3, 0, 0, 1, 0, 0, 3, 4, 9, 2, 2, 4, 0, 7, 1, 3, 0, 2})
	f.Add([]byte{3, 2, 2, 3, 3, 0, 1, 6, 6, 1, 3, 5, 5, 3, 2, 2, 2, 1, 0, 4, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := byteSource(data)
		s, err := store.Open(t.TempDir(), store.Options{Stripes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for n := b.next(24); n > 0; n-- {
			a := logs.Action{Principal: fuzzPrincipals[b.next(3)], Kind: logs.ActKind(b.next(4)), A: b.term(), B: b.term()}
			if _, err := s.Append(a); err != nil {
				t.Fatal(err)
			}
		}
		for len(b) > 0 {
			// Channel "ch0" only ever appears as a variable; kind 4 is
			// out of range.
			ft := store.Filter{Channel: []string{"", "n0", "n1", "ch0"}[b.next(4)]}
			if b.next(2) == 1 {
				ft.Kind, ft.KindSet = logs.ActKind(b.next(5)), true
			}
			from, ceil, n := uint64(b.next(28)), uint64(b.next(28)), b.next(28)-1
			if got, want := s.ScanFiltered(ft, from, ceil, n), perShard(s, ft, from, ceil, n); !slices.Equal(got, want) {
				t.Fatalf("ScanFiltered(%+v, %d, %d, %d) = %v, per-shard plan %v", ft, from, ceil, n, got, want)
			}
			if got, want := s.ScanFilteredTail(ft, ceil, n), perShardTail(s, ft, ceil, n); !slices.Equal(got, want) {
				t.Fatalf("ScanFilteredTail(%+v, %d, %d) = %v, per-shard plan %v", ft, ceil, n, got, want)
			}
		}
	})
}
