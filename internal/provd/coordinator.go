package provd

// Coordinator role: the surface over a partitioned fleet
// (docs/architecture.md, "The partition layer"). A coordinator owns no
// store — every read scatters to the partition leaders over the binary
// read protocol and merges (internal/cluster.Fleet), every write routes
// by owning principal (internal/cluster.Client), and the per-principal
// audit proxies to the one leader holding every record the claim's
// provenance can name, so its verdict is the owner's verdict bit for
// bit.
//
// The routes, DTOs and error mapping are the node's (server.go), so
// operators and tooling move between a node and a fleet by changing an
// address. The differences are inherent to partitioning and documented
// in docs/operations.md: the merged /log tail is a single page, forward
// walks paginate by vector cursor, appends answer {count, routed}, and
// a cross-partition audit is refused with the partition split named
// rather than answered with a verdict no single log justifies.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/logs"
	"repro/internal/syntax"
)

// CoordinatorOptions tunes the fleet-facing side of a coordinator.
type CoordinatorOptions struct {
	// Client performs the HTTP calls to partition leaders (audit proxy,
	// principal census). Configure its transport with the fleet's TLS
	// material; nil uses a default client with a 30s timeout.
	Client *http.Client
	// Token is sent as a bearer token on leader HTTP calls when the
	// fleet runs token auth (the dev shape; mTLS rides Client).
	Token string
}

// fleet is the coordinator backend: the fleet's read and write planes
// plus the HTTP client the audit proxy and principal census use.
type fleet struct {
	*cluster.Fleet
	opts CoordinatorOptions

	proxied  atomic.Uint64
	refusals atomic.Uint64 // cross-partition audits refused
}

// NewCoordinator serves the provd surface over a fleet. With identity
// enforcement on at the leaders, the coordinator's own identity needs
// the read role with observer "*": it pins each caller's observer
// itself before forwarding.
func NewCoordinator(f *cluster.Fleet, opts CoordinatorOptions) *Server {
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return newServer(&fleet{Fleet: f, opts: opts})
}

func (f *fleet) refuseWrite(http.ResponseWriter, *http.Request) bool { return false }

func (f *fleet) admit(string) error { return nil }

// append routes a batch through the fleet's binary write plane. A batch
// may span partitions, and a fleet assigns no single contiguous
// sequence block, so the response carries no sequence number.
func (f *fleet) append(acts []logs.Action, _ bool) (any, error) {
	if err := f.AppendActions(acts); err != nil {
		return nil, &statusError{http.StatusBadGateway, err}
	}
	return map[string]any{"count": len(acts), "routed": true}, nil
}

// audit routes the Definition-3 check to the one leader holding every
// record the claim's provenance can name. The verdict depends only on
// the relative order of the principals the provenance names
// (docs/architecture.md, "Audit locality"); when they all live on one
// partition, the owner's global log restricted to them is exactly the
// fleet's, and the proxied verdict is bit-identical to a single node's.
// An empty provenance denotes the empty log, correct against any store
// — answered locally. A provenance spanning partitions has no single
// log that justifies a verdict; it is refused with the split named, not
// guessed at.
func (f *fleet) audit(w http.ResponseWriter, req AuditRequest, k syntax.Prov) error {
	if len(k) == 0 {
		// ⟦V:ε⟧ = Nil ≼ φ for every φ: trivially correct, no leader needed.
		writeJSON(w, http.StatusOK, AuditResponse{Correct: true})
		return nil
	}
	if owners := f.AuditPrincipals(k); len(owners) > 1 {
		f.refusals.Add(1)
		parts := make([]string, 0, len(owners))
		for id, ps := range owners {
			parts = append(parts, fmt.Sprintf("%s(%s)", id, strings.Join(ps, ",")))
		}
		sort.Strings(parts)
		return &statusError{http.StatusUnprocessableEntity, fmt.Errorf(
			"audit provenance spans %d partitions [%s]: no single leader holds the interleaving; audit each principal's events separately or repartition with overrides",
			len(owners), strings.Join(parts, " "))}
	}
	owner := f.OwnerOf(k[0].Principal)
	if owner.HTTP == "" {
		return &statusError{http.StatusBadGateway, fmt.Errorf(
			"leader %q exposes no http endpoint in the partition map; audits need http= on every leader", owner.ID)}
	}
	// Forward the request with its observer already pinned: the leader
	// sees the coordinator's identity, which passes observers through.
	body, err := json.Marshal(req)
	if err != nil {
		return &statusError{http.StatusInternalServerError, err}
	}
	resp, err := f.leaderDo(http.MethodPost, strings.TrimRight(owner.HTTP, "/")+"/audit", bytes.NewReader(body))
	if err != nil {
		return &statusError{http.StatusBadGateway, fmt.Errorf("leader %s: %v", owner.ID, err)}
	}
	defer resp.Body.Close()
	// Relay status and body verbatim — the bit-identical contract.
	f.proxied.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return nil
}

// leaderDo sends one request to a leader's HTTP surface with the
// coordinator's credentials.
func (f *fleet) leaderDo(method, u string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if f.opts.Token != "" {
		req.Header.Set("Authorization", "Bearer "+f.opts.Token)
	}
	return f.opts.Client.Do(req)
}

// principals scatters the paginated principal census to every leader's
// HTTP endpoint and merges the pages name-sorted. Each leader applies
// its own disclosure policy before answering, so the merged list
// discloses exactly the union of what each leader would; ownership is
// disjoint, so the union has no duplicates to resolve.
func (f *fleet) principals(observer string) ([]PrincipalDTO, error) {
	var merged []PrincipalDTO
	for _, l := range f.Leaders() {
		if l.HTTP == "" {
			return nil, &statusError{http.StatusBadGateway, fmt.Errorf("leader %q exposes no http endpoint in the partition map", l.ID)}
		}
		cursor := ""
		for {
			page, err := f.principalPage(l, observer, cursor)
			if err != nil {
				return nil, &statusError{http.StatusBadGateway, fmt.Errorf("leader %s: %w", l.ID, err)}
			}
			merged = append(merged, page.Principals...)
			if page.Cursor == "" {
				break
			}
			cursor = page.Cursor
		}
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i].Principal < merged[j].Principal })
	return merged, nil
}

// principalPage fetches one page of a leader's principal census.
func (f *fleet) principalPage(l cluster.Leader, observer, cursor string) (PrincipalsResponse, error) {
	var page PrincipalsResponse
	u := strings.TrimRight(l.HTTP, "/") + "/principals?limit=10000"
	if observer != "" {
		u += "&observer=" + url.QueryEscape(observer)
	}
	if cursor != "" {
		u += "&cursor=" + url.QueryEscape(cursor)
	}
	resp, err := f.leaderDo(http.MethodGet, u, nil)
	if err != nil {
		return page, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return page, fmt.Errorf("principals returned %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return page, fmt.Errorf("decoding principals: %w", err)
	}
	return page, nil
}

// compact names the right place to compact instead of pretending to:
// compaction is a per-leader store operation.
func (f *fleet) compact(string) error {
	return &statusError{http.StatusMisdirectedRequest, fmt.Errorf("a coordinator holds no store; POST /compact to each partition leader")}
}

func (f *fleet) clusterMap() (uint64, int, bool) {
	m := f.Map()
	return m.Epoch, len(m.Leaders), true
}

func (f *fleet) health(h map[string]any) { h["role"] = "coordinator" }

func (f *fleet) metrics(w io.Writer) {
	fmt.Fprintf(w, "provd_cluster_audit_proxies_total %d\n", f.proxied.Load())
	fmt.Fprintf(w, "provd_cluster_audit_refusals_total %d\n", f.refusals.Load())
}
