package provd

// Cursor pagination on the HTTP read surface: the endpoints are thin
// adapters over internal/query, so these tests pin the adapter
// behaviour — JSON shapes, cursor round-trips through URLs, filter
// validation — rather than re-proving the engine.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"repro/internal/store"
	"repro/internal/trust"
)

func newQueryServer(t *testing.T, policy *trust.DisclosurePolicy, n int) (*httptest.Server, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(NewServer(st, policy))
	t.Cleanup(ts.Close)
	for i := 0; i < n; i++ {
		a := ActionDTO{Principal: fmt.Sprintf("p%d", i%3), Kind: "snd",
			A: TermDTO{Name: fmt.Sprintf("c%d", i%2)}, B: TermDTO{Name: fmt.Sprintf("v%d", i)}}
		if code := postJSON(t, ts, "/append", a, nil); code != http.StatusOK {
			t.Fatalf("/append status %d", code)
		}
	}
	return ts, st
}

// TestLogCursorPagination: /log pages backwards through history via the
// cursor; the pages reassemble the exact store contents; the last page
// carries no cursor.
func TestLogCursorPagination(t *testing.T) {
	ts, st := newQueryServer(t, nil, 95)

	var seqs []uint64
	pages := 0
	path := "/log?limit=20"
	for {
		var lr LogResponse
		if code := getJSON(t, ts, path, &lr); code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
		pages++
		// Tail pages arrive newest-first; prepend to rebuild history.
		pageSeqs := make([]uint64, len(lr.Records))
		for i, r := range lr.Records {
			pageSeqs[i] = r.Seq
		}
		seqs = append(pageSeqs, seqs...)
		if lr.Cursor == "" {
			break
		}
		path = "/log?limit=20&cursor=" + url.QueryEscape(lr.Cursor)
	}
	if pages != 5 {
		t.Fatalf("95 records in pages of 20 took %d pages", pages)
	}
	if len(seqs) != st.Len() {
		t.Fatalf("walk covered %d of %d records", len(seqs), st.Len())
	}
	for i, s := range seqs {
		if s != uint64(i) {
			t.Fatalf("position %d holds seq %d", i, s)
		}
	}
}

// TestLogForwardWalk: ?from= walks ascending with forward cursors.
func TestLogForwardWalk(t *testing.T) {
	ts, _ := newQueryServer(t, nil, 50)
	var lr LogResponse
	if code := getJSON(t, ts, "/log?from=10&limit=15", &lr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(lr.Records) != 15 || lr.Records[0].Seq != 10 || lr.Cursor == "" {
		t.Fatalf("forward page: %d records from %d, cursor %q", len(lr.Records), lr.Records[0].Seq, lr.Cursor)
	}
	var lr2 LogResponse
	if code := getJSON(t, ts, "/log?from=10&limit=100&cursor="+url.QueryEscape(lr.Cursor), &lr2); code != http.StatusOK {
		t.Fatalf("resume status %d", code)
	}
	if len(lr2.Records) != 25 || lr2.Records[0].Seq != 25 || lr2.Cursor != "" {
		t.Fatalf("forward resume: %d records from %d, cursor %q", len(lr2.Records), lr2.Records[0].Seq, lr2.Cursor)
	}
	// A malformed ?from= is a 400, not a silent walk from the wrong seq.
	for _, bad := range []string{"5xyz", "-1", "0x10", " 5"} {
		resp, err := http.Get(ts.URL + "/log?from=" + url.QueryEscape(bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("from=%q status %d", bad, resp.StatusCode)
		}
	}
}

// TestShardLogFiltersAndCursor: shard pagination composes with the
// chan/kind filters, and a cursor presented with different filters is a
// 400, not a silent frankenwalk.
func TestShardLogFiltersAndCursor(t *testing.T) {
	ts, st := newQueryServer(t, nil, 120)
	var lr LogResponse
	if code := getJSON(t, ts, "/log/p0?chan=c0&limit=10", &lr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(lr.Records) != 10 || lr.Cursor == "" {
		t.Fatalf("filtered page: %d records, cursor %q", len(lr.Records), lr.Cursor)
	}
	want := st.ScanShardTail("p0", store.Filter{Channel: "c0"}, 0, -1)
	if lr.Records[0].Seq != want[len(want)-10].Seq {
		t.Fatalf("filtered tail starts at %d, want %d", lr.Records[0].Seq, want[len(want)-10].Seq)
	}
	// Same cursor, different filter: rejected.
	resp, err := http.Get(ts.URL + "/log/p0?chan=c1&limit=10&cursor=" + url.QueryEscape(lr.Cursor))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("filter-mismatched cursor status %d", resp.StatusCode)
	}
	// Garbage cursor: rejected.
	resp, err = http.Get(ts.URL + "/log?cursor=garbage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage cursor status %d", resp.StatusCode)
	}
}

// TestGlobalLogFilters: /log now accepts chan/kind filters across all
// shards (the engine's merged plan).
func TestGlobalLogFilters(t *testing.T) {
	ts, st := newQueryServer(t, nil, 60)
	var lr LogResponse
	if code := getJSON(t, ts, "/log?chan=c1&limit=1000", &lr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	wantN := 0
	for _, r := range st.ScanGlobalTail(0, -1) {
		if r.Act.A.Name == "c1" {
			wantN++
		}
	}
	if len(lr.Records) != wantN {
		t.Fatalf("global chan filter returned %d of %d matches", len(lr.Records), wantN)
	}
	for _, r := range lr.Records {
		if r.Action.A.Name != "c1" {
			t.Fatalf("filter leaked %+v", r)
		}
	}
}

// TestPrincipalsPagination: the bare-array shape survives unpaginated;
// ?limit= switches to the object shape with counts and a cursor that
// walks the full name-sorted list.
func TestPrincipalsPagination(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("p1", "eve")
	ts, st := newQueryServer(t, policy, 30)

	var bare []string
	if code := getJSON(t, ts, "/principals", &bare); code != http.StatusOK {
		t.Fatalf("bare status %d", code)
	}
	if len(bare) != 3 {
		t.Fatalf("bare principals %v", bare)
	}
	var pr PrincipalsResponse
	if code := getJSON(t, ts, "/principals?limit=2", &pr); code != http.StatusOK {
		t.Fatalf("paged status %d", code)
	}
	if len(pr.Principals) != 2 || pr.Cursor == "" {
		t.Fatalf("page 1: %+v", pr)
	}
	for _, p := range pr.Principals {
		if want := len(st.ScanShardTail(p.Principal, store.Filter{}, 0, -1)); p.Records != want {
			t.Fatalf("%s reports %d records, holds %d", p.Principal, p.Records, want)
		}
	}
	var pr2 PrincipalsResponse
	if code := getJSON(t, ts, "/principals?limit=2&cursor="+url.QueryEscape(pr.Cursor), &pr2); code != http.StatusOK {
		t.Fatalf("page 2 status %d", code)
	}
	if len(pr2.Principals) != 1 || pr2.Cursor != "" || pr2.Principals[0].Principal != "p2" {
		t.Fatalf("page 2: %+v", pr2)
	}
	// Hidden principals stay hidden in both shapes.
	if code := getJSON(t, ts, "/principals?observer=eve", &bare); code != http.StatusOK {
		t.Fatalf("observer status %d", code)
	}
	for _, p := range bare {
		if p == "p1" {
			t.Fatal("hidden principal listed for eve")
		}
	}
}

// TestLimitZeroProbe: ?limit=0 keeps its historical empty-response
// behaviour, and a hidden shard still 403s on it.
func TestLimitZeroProbe(t *testing.T) {
	policy := trust.NewDisclosurePolicy().HideFrom("p1", "eve")
	ts, _ := newQueryServer(t, policy, 10)
	var lr LogResponse
	if code := getJSON(t, ts, "/log?limit=0", &lr); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(lr.Records) != 0 || lr.Log != "0" || lr.Cursor != "" {
		t.Fatalf("probe response %+v", lr)
	}
	resp, err := http.Get(ts.URL + "/log/p1?limit=0&observer=eve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("hidden shard probe status %d", resp.StatusCode)
	}
}
