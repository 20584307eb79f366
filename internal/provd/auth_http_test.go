package provd

// HTTP-surface enforcement: the same grants the binary listener
// enforces (internal/ingest/auth_test.go is the raw-wire twin), bound
// here to bearer tokens and client certificates. /healthz and
// /metrics stay open; everything else demands a known identity.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/auth"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/testutil"
	"repro/internal/trust"
)

// authedServer builds an enforcing app over a store holding one "s"
// and one "p" record, with a policy hiding "s" from "c": a writer
// identity bound to principal alice, a reader identity bound to
// observer c.
func authedServer(t *testing.T) (*httptest.Server, *store.Store, *auth.Guard) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for _, p := range []string{"s", "p"} {
		if _, err := st.Append(logs.SndAct(p, logs.NameT("m"), logs.NameT("v"))); err != nil {
			t.Fatal(err)
		}
	}
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, "wtok"); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(auth.Grant{Name: "reader", Observer: "c", Roles: auth.RoleRead}, "rtok"); err != nil {
		t.Fatal(err)
	}
	guard := auth.NewGuard(m)
	app := NewServer(st, trust.NewDisclosurePolicy().HideFrom("s", "c"))
	app.SetAuth(guard)
	ts := httptest.NewServer(app)
	t.Cleanup(ts.Close)
	return ts, st, guard
}

// do issues one request with an optional bearer token, decoding the
// JSON response into out (when non-nil) and returning the status.
func do(t *testing.T, ts *httptest.Server, method, path, token string, body any, out any) int {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// TestHTTPAuthTokens: bearer-token identities get exactly their
// granted authority — 401 without an identity, 403 outside the grant,
// observer coercion on reads — while health and metrics stay open.
func TestHTTPAuthTokens(t *testing.T) {
	ts, st, guard := authedServer(t)

	// No identity: reads and writes refused, probes and scrapes open.
	if code := do(t, ts, "GET", "/log", "", nil, nil); code != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /log: %d", code)
	}
	if code := do(t, ts, "GET", "/healthz", "", nil, nil); code != http.StatusOK {
		t.Fatalf("/healthz should stay open: %d", code)
	}
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "provd_auth_conn_rejects_total 1") {
		t.Fatalf("metrics missing the rejection:\n%s", metrics)
	}

	// The writer appends within its grant…
	action := map[string]any{"principal": "alice", "kind": "snd",
		"a": map[string]string{"name": "m"}, "b": map[string]string{"name": "v"}}
	if code := do(t, ts, "POST", "/append", "wtok", action, nil); code != http.StatusOK {
		t.Fatalf("granted append: %d", code)
	}
	// …not as anyone else…
	action["principal"] = "bob"
	if code := do(t, ts, "POST", "/append", "wtok", action, nil); code != http.StatusForbidden {
		t.Fatalf("impersonating append: %d", code)
	}
	// …not smuggled in a batch (refused whole — none appended)…
	batch := []map[string]any{
		{"principal": "alice", "kind": "snd", "a": map[string]string{"name": "m"}, "b": map[string]string{"name": "v"}},
		{"principal": "bob", "kind": "snd", "a": map[string]string{"name": "m"}, "b": map[string]string{"name": "v"}},
	}
	if code := do(t, ts, "POST", "/append", "wtok", batch, nil); code != http.StatusForbidden {
		t.Fatalf("mixed batch: %d", code)
	}
	if n := len(st.ScanShardTail("bob", store.Filter{}, 0, -1)); n != 0 {
		t.Fatalf("bob has %d records; impersonation committed", n)
	}
	// …and cannot read at all.
	if code := do(t, ts, "GET", "/log", "wtok", nil, nil); code != http.StatusForbidden {
		t.Fatalf("writer /log: %d", code)
	}

	// The reader asks for the full view and receives observer c's:
	// "s" is hidden from c, so its record comes back masked.
	var lr LogResponse
	if code := do(t, ts, "GET", "/log?from=0", "rtok", nil, &lr); code != http.StatusOK {
		t.Fatalf("reader /log: %d", code)
	}
	if lr.Observer != "c" {
		t.Fatalf("observer not coerced: %q", lr.Observer)
	}
	masked := false
	for _, r := range lr.Records {
		if r.Action.Principal == "s" {
			t.Fatalf("hidden principal leaked: %+v", r)
		}
		if r.Action.Principal == trust.RedactedPrincipal {
			masked = true
		}
	}
	if !masked {
		t.Fatal("no record was masked; coercion did not reach redaction")
	}
	// The reader cannot write.
	action["principal"] = "alice"
	if code := do(t, ts, "POST", "/append", "rtok", action, nil); code != http.StatusForbidden {
		t.Fatalf("reader append: %d", code)
	}

	if a, q := guard.AppendRejects.Load(), guard.QueryRejects.Load(); a != 3 || q != 1 {
		t.Fatalf("rejection counters: append %d (want 3), query %d (want 1)", a, q)
	}
}

// TestHTTPAuthClientCert: over mutual TLS the client certificate is
// the identity — a mapped CN gets its grant, an unmapped one is 401
// even though its certificate verified.
func TestHTTPAuthClientCert(t *testing.T) {
	ca, err := testutil.NewTestCA()
	if err != nil {
		t.Fatal(err)
	}
	serverConf, err := ca.ServerConfig("server")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	m := auth.NewMap()
	if err := m.Add(auth.Grant{Name: "writer", Principals: []string{"alice"}, Roles: auth.RoleAppend}, ""); err != nil {
		t.Fatal(err)
	}
	app := NewServer(st2, nil)
	app.SetAuth(auth.NewGuard(m))
	tls2 := httptest.NewUnstartedServer(app)
	tls2.TLS = serverConf
	tls2.StartTLS()
	t.Cleanup(tls2.Close)

	client := func(identity string) *http.Client {
		conf, err := ca.ClientConfig(identity)
		if err != nil {
			t.Fatal(err)
		}
		conf = conf.Clone()
		conf.ServerName = "127.0.0.1"
		return &http.Client{Transport: &http.Transport{TLSClientConfig: conf}}
	}

	post := func(c *http.Client, principal string) int {
		b, _ := json.Marshal(map[string]any{"principal": principal, "kind": "snd",
			"a": map[string]string{"name": "m"}, "b": map[string]string{"name": "v"}})
		resp, err := c.Post(tls2.URL+"/append", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(client("writer"), "alice"); code != http.StatusOK {
		t.Fatalf("cert-identified append: %d", code)
	}
	if code := post(client("writer"), "bob"); code != http.StatusForbidden {
		t.Fatalf("cert-identified impersonation: %d", code)
	}
	if code := post(client("stranger"), "alice"); code != http.StatusUnauthorized {
		t.Fatalf("unmapped certificate: %d", code)
	}
	if n := len(st2.ScanShardTail("alice", store.Filter{}, 0, -1)); n != 1 {
		t.Fatalf("alice has %d records, want 1", n)
	}
}
