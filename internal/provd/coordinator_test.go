package provd

// The coordinator surface over an in-process two-leader fleet: each
// leader is a store, its binary listener and a node Server on
// httptest, published in the partition map with its HTTP base. The
// leaders enforce identities the way a production fleet does, and the
// coordinator reaches them as the documented "coordinator" identity:
// append and read roles, every principal, observer "*".

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/auth"
	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/trust"
	"repro/internal/wire"
)

const coordToken = "ctok"

type fleetLeader struct {
	id   string
	st   *store.Store
	http *httptest.Server
}

type testFleet struct {
	leaders []*fleetLeader
	m       *cluster.Map
	coord   *httptest.Server
}

// startCoordinated boots two cluster-aware leaders under policy and a
// coordinator over them, enforcing coordGuard when non-nil. The nodes
// bootstrap on a placeholder map (ownership hashes IDs, not addresses)
// and learn the real addresses once both listeners are up; the real
// map's epoch (3) differs from the bootstrap's so epoch reports show
// the rollout.
func startCoordinated(t *testing.T, policy *trust.DisclosurePolicy, coordGuard *auth.Guard) *testFleet {
	t.Helper()
	am := auth.NewMap()
	if err := am.Add(auth.Grant{Name: "coordinator", Principals: []string{"*"}, Observer: "*", Roles: auth.RoleAppend | auth.RoleRead}, coordToken); err != nil {
		t.Fatal(err)
	}
	boot := []cluster.Leader{{ID: "L0", Ingest: "boot.invalid:0"}, {ID: "L1", Ingest: "boot.invalid:0"}}
	bm := &cluster.Map{Epoch: 1, Leaders: boot}
	if err := bm.Validate(); err != nil {
		t.Fatal(err)
	}
	f := &testFleet{}
	nodes := make([]*cluster.Node, len(boot))
	real := make([]cluster.Leader, len(boot))
	for i, b := range boot {
		st, err := store.Open(t.TempDir(), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if nodes[i], err = cluster.NewNode(bm, b.ID); err != nil {
			t.Fatal(err)
		}
		guard := auth.NewGuard(am)
		app := NewServer(st, policy)
		app.SetCluster(nodes[i])
		app.SetAuth(guard)
		ts := httptest.NewServer(app)
		ing := ingest.NewServer(st, ingest.Options{Engine: app.Engine(), Cluster: nodes[i], Auth: guard})
		addr, err := ing.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ts.Close(); ing.Close(); st.Close() })
		f.leaders = append(f.leaders, &fleetLeader{id: b.ID, st: st, http: ts})
		real[i] = cluster.Leader{ID: b.ID, Ingest: addr, HTTP: ts.URL}
	}
	f.m = &cluster.Map{Epoch: 3, Leaders: real}
	if err := f.m.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes {
		if err := n.SetMap(f.m); err != nil {
			t.Fatal(err)
		}
	}
	rc := cluster.NewClient(f.m, cluster.ClientOptions{Conns: 1, RequestTimeout: 5 * time.Second, Token: coordToken})
	app := NewCoordinator(cluster.NewFleet(rc), CoordinatorOptions{Token: coordToken})
	if coordGuard != nil {
		app.SetAuth(coordGuard)
	}
	f.coord = httptest.NewServer(app)
	t.Cleanup(func() { f.coord.Close(); rc.Close() })
	return f
}

// owner returns the leader owning principal p.
func (f *testFleet) owner(p string) *fleetLeader { return f.leaders[f.m.Owner(p)] }

// samePartition returns n principals one leader owns, and one
// principal the other leader owns.
func (f *testFleet) samePartition(n int) (local []string, other string) {
	for i := 0; len(local) < n || other == ""; i++ {
		p := fmt.Sprintf("q%d", i)
		switch {
		case f.m.Owner(p) == 0 && len(local) < n:
			local = append(local, p)
		case f.m.Owner(p) == 1 && other == "":
			other = p
		}
	}
	return local, other
}

// raw issues one request and returns status and body bytes.
func raw(t *testing.T, method, u, token string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// metric reads one gauge from a /metrics scrape (-1 when absent).
func metric(t *testing.T, base, name string) int {
	t.Helper()
	_, body := raw(t, "GET", base+"/metrics", "", nil)
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var n int
			fmt.Sscan(v, &n)
			return n
		}
	}
	return -1
}

func snd(p, ch, v string) ActionDTO {
	return ActionDTO{Principal: p, Kind: "snd", A: TermDTO{Name: ch}, B: TermDTO{Name: v}}
}

// TestCoordinatorAppendAndLog: single and batch appends route by owner
// and answer {count, routed}; the merged /log tail, a ?from= walk by
// vector cursor and /log/{principal} all serve exactly what the
// leaders hold.
func TestCoordinatorAppendAndLog(t *testing.T) {
	f := startCoordinated(t, nil, nil)
	var ack map[string]any
	if code := postJSON(t, f.coord, "/append", snd("p0", "m", "v0"), &ack); code != http.StatusOK || ack["count"] != 1.0 || ack["routed"] != true {
		t.Fatalf("single append: %d %v", code, ack)
	}
	var batch []ActionDTO
	for i := 1; i < 24; i++ {
		batch = append(batch, snd(fmt.Sprintf("p%d", i%6), "m", fmt.Sprintf("v%d", i)))
	}
	if code := postJSON(t, f.coord, "/append", batch, &ack); code != http.StatusOK || ack["count"] != 23.0 || ack["routed"] != true {
		t.Fatalf("batch append: %d %v", code, ack)
	}
	if code := postJSON(t, f.coord, "/append", []ActionDTO{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: %d", code)
	}
	for i := 0; i < 6; i++ {
		p := fmt.Sprintf("p%d", i)
		for _, l := range f.leaders {
			n := len(l.st.ScanShardTail(p, store.Filter{}, 0, -1))
			if owns := l == f.owner(p); owns != (n == 4) || (!owns && n != 0) {
				t.Fatalf("principal %s: leader %s holds %d records (owner %s)", p, l.id, n, f.owner(p).id)
			}
		}
	}

	var tail LogResponse
	if code := getJSON(t, f.coord, "/log", &tail); code != http.StatusOK || len(tail.Records) != 24 {
		t.Fatalf("merged tail: %d, %d records", code, len(tail.Records))
	}
	var walked []RecordDTO
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 10 {
			t.Fatal("forward walk does not terminate")
		}
		var page LogResponse
		path := "/log?from=0&limit=5"
		if cursor != "" {
			path += "&cursor=" + url.QueryEscape(cursor)
		}
		if code := getJSON(t, f.coord, path, &page); code != http.StatusOK {
			t.Fatalf("walk page %d: status %d", pages, code)
		}
		walked = append(walked, page.Records...)
		if page.Cursor == "" {
			break
		}
		if !wire.IsVectorCursor(page.Cursor) {
			t.Fatalf("merged walk cursor is not a vector cursor: %q", page.Cursor)
		}
		cursor = page.Cursor
	}
	if len(walked) != 24 {
		t.Fatalf("forward walk saw %d records, want 24", len(walked))
	}

	var shard LogResponse
	if code := getJSON(t, f.coord, "/log/p1", &shard); code != http.StatusOK {
		t.Fatalf("/log/p1: %d", code)
	}
	want := recordDTOs(f.owner("p1").st.ScanShardTail("p1", store.Filter{}, 0, -1))
	if fmt.Sprint(shard.Records) != fmt.Sprint(want) {
		t.Fatalf("/log/p1 = %v, owner holds %v", shard.Records, want)
	}
}

// TestCoordinatorAudit: a single-owner audit is the owner's answer byte
// for byte, a cross-partition one is refused with the split named, and
// an empty provenance is answered without any leader.
func TestCoordinatorAudit(t *testing.T) {
	f := startCoordinated(t, nil, nil)
	local, other := f.samePartition(2)
	a, b := local[0], local[1]
	for _, act := range []ActionDTO{
		snd(a, "m", "v"),
		{Principal: b, Kind: "rcv", A: TermDTO{Name: "m"}, B: TermDTO{Name: "v"}},
		snd(other, "n", "w"),
	} {
		if code := postJSON(t, f.coord, "/append", act, nil); code != http.StatusOK {
			t.Fatalf("append: %d", code)
		}
	}
	base := metric(t, f.coord.URL, "provd_cluster_audit_proxies_total")
	for _, claim := range []AuditRequest{
		{Value: "v", Prov: []EventDTO{{Principal: b, Dir: "?"}, {Principal: a, Dir: "!"}}, Observer: b},
		{Value: "v", Prov: []EventDTO{{Principal: a, Dir: "?"}, {Principal: b, Dir: "!"}}},
	} {
		body, _ := json.Marshal(claim)
		code, got := raw(t, "POST", f.coord.URL+"/audit", "", body)
		wantCode, want := raw(t, "POST", f.owner(a).http.URL+"/audit", coordToken, body)
		if code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("coordinator audit %d %s, owner says %d %s", code, got, wantCode, want)
		}
	}
	if n := metric(t, f.coord.URL, "provd_cluster_audit_proxies_total"); n != base+2 {
		t.Fatalf("audit proxies %d, want %d", n, base+2)
	}

	split := AuditRequest{Value: "w", Prov: []EventDTO{{Principal: other, Dir: "!"}, {Principal: a, Dir: "?"}}}
	var refusal map[string]string
	if code := postJSON(t, f.coord, "/audit", split, &refusal); code != http.StatusUnprocessableEntity ||
		!strings.Contains(refusal["error"], "spans 2 partitions") || !strings.Contains(refusal["error"], "L0("+a+")") {
		t.Fatalf("cross-partition audit: %d %v", code, refusal)
	}
	if n := metric(t, f.coord.URL, "provd_cluster_audit_refusals_total"); n != 1 {
		t.Fatalf("audit refusals %d, want 1", n)
	}

	var ar AuditResponse
	if code := postJSON(t, f.coord, "/audit", AuditRequest{Value: "zzz"}, &ar); code != http.StatusOK || !ar.Correct {
		t.Fatalf("empty provenance: %d %+v", code, ar)
	}
	if n := metric(t, f.coord.URL, "provd_cluster_audit_proxies_total"); n != base+2 {
		t.Fatalf("empty provenance reached a leader: %d proxies", n)
	}
}

// TestCoordinatorAuditPinsObserver is the disclosure regression: a
// reader pinned to observer c asks the coordinator for observer bob's
// view. The coordinator must pin the observer before forwarding — the
// leader trusts the coordinator's identity to pass observers through —
// so the caller sees c's redacted view, exactly as on a node.
func TestCoordinatorAuditPinsObserver(t *testing.T) {
	am := auth.NewMap()
	if err := am.Add(auth.Grant{Name: "reader", Observer: "c", Roles: auth.RoleRead}, "rtok"); err != nil {
		t.Fatal(err)
	}
	f := startCoordinated(t, trust.NewDisclosurePolicy().HideFrom("s", "c"), auth.NewGuard(am))
	if _, err := f.owner("s").st.Append(logs.SndAct("s", logs.NameT("m"), logs.NameT("v"))); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(AuditRequest{Value: "v", Prov: []EventDTO{{Principal: "s", Dir: "!"}}, Observer: "bob"})
	code, got := raw(t, "POST", f.coord.URL+"/audit", "rtok", body)
	var ar AuditResponse
	if err := json.Unmarshal(got, &ar); err != nil || code != http.StatusOK {
		t.Fatalf("audit: %d %s", code, got)
	}
	if !ar.Correct || len(ar.ProvView) != 1 || ar.ProvView[0].Principal != trust.RedactedPrincipal {
		t.Fatalf("reader pinned to c saw %+v: the coordinator leaked another observer's view", ar.ProvView)
	}
}

// TestCoordinatorSurface: the rest of the route set — /compact's 421,
// the merged paginated /principals, /healthz's role and map, and the
// 401 for a request without identity.
func TestCoordinatorSurface(t *testing.T) {
	am := auth.NewMap()
	if err := am.Add(auth.Grant{Name: "ops", Principals: []string{"*"}, Observer: "*", Roles: auth.RoleAppend | auth.RoleRead}, "otok"); err != nil {
		t.Fatal(err)
	}
	f := startCoordinated(t, nil, auth.NewGuard(am))
	if code, _ := raw(t, "GET", f.coord.URL+"/log", "", nil); code != http.StatusUnauthorized {
		t.Fatalf("no identity: %d", code)
	}
	if n := metric(t, f.coord.URL, "provd_auth_conn_rejects_total"); n != 1 {
		t.Fatalf("conn rejects %d, want 1", n)
	}
	var batch []ActionDTO
	var want []string
	for i := 0; i < 7; i++ {
		p := fmt.Sprintf("p%d", i)
		batch = append(batch, snd(p, "m", "v"))
		want = append(want, p)
	}
	body, _ := json.Marshal(batch)
	if code, b := raw(t, "POST", f.coord.URL+"/append", "otok", body); code != http.StatusOK {
		t.Fatalf("append: %d %s", code, b)
	}
	if code, _ := raw(t, "POST", f.coord.URL+"/compact", "otok", nil); code != http.StatusMisdirectedRequest {
		t.Fatalf("/compact: %d", code)
	}

	var bare []string
	if _, b := raw(t, "GET", f.coord.URL+"/principals", "otok", nil); json.Unmarshal(b, &bare) != nil || fmt.Sprint(bare) != fmt.Sprint(want) {
		t.Fatalf("bare principals %s, want %v", b, want)
	}
	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 5 {
			t.Fatal("principals walk does not terminate")
		}
		var page PrincipalsResponse
		_, b := raw(t, "GET", f.coord.URL+"/principals?limit=3&cursor="+url.QueryEscape(cursor), "otok", nil)
		if err := json.Unmarshal(b, &page); err != nil {
			t.Fatalf("principals page: %s", b)
		}
		for _, pc := range page.Principals {
			if pc.Records != 1 {
				t.Fatalf("principal %s counts %d records", pc.Principal, pc.Records)
			}
			got = append(got, pc.Principal)
		}
		if page.Cursor == "" {
			break
		}
		cursor = page.Cursor
	}
	if !sort.StringsAreSorted(got) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("paginated principals %v, want %v", got, want)
	}

	var health map[string]any
	if code := getJSON(t, f.coord, "/healthz", &health); code != http.StatusOK ||
		health["role"] != "coordinator" || health["epoch"] != 3.0 || health["leaders"] != 2.0 {
		t.Fatalf("coordinator healthz: %d %v", code, health)
	}
}

// TestLeaderReportsEpoch: a partition leader's own /metrics and
// /healthz carry the map epoch and leader count, so a rollout can be
// confirmed node by node.
func TestLeaderReportsEpoch(t *testing.T) {
	f := startCoordinated(t, nil, nil)
	for _, l := range f.leaders {
		if e := metric(t, l.http.URL, "provd_cluster_epoch"); e != 3 {
			t.Fatalf("leader %s provd_cluster_epoch %d, want 3", l.id, e)
		}
		if n := metric(t, l.http.URL, "provd_cluster_leaders"); n != 2 {
			t.Fatalf("leader %s provd_cluster_leaders %d, want 2", l.id, n)
		}
		var health map[string]any
		if code := getJSON(t, l.http, "/healthz", &health); code != http.StatusOK || health["epoch"] != 3.0 || health["role"] != "leader" {
			t.Fatalf("leader %s healthz: %d %v", l.id, code, health)
		}
	}
}
