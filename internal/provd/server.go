// Package provd is the application layer of the provenance log daemon:
// the HTTP/JSON audit and query surface, plus the glue that surfaces
// the binary ingest listener's counters. One Server serves every route
// in either of two roles: a node over its own store.Store (NewServer),
// or a fleet coordinator over the partition leaders (NewCoordinator).
// The auth gate, request decoding, observer coercion, pagination and
// the metrics writer are written once here; what depends on where the
// log lives sits behind the backend interface (node.go,
// coordinator.go). cmd/provd wires it to flags and signals; living
// here (rather than in the command) lets benchmarks and load
// generators drive the real handlers in process.
package provd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/auth"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// Server is the audit/query front end. Every read endpoint is a thin
// adapter over a query.Runner — a node's typed query engine
// (internal/query) or a coordinator's scatter-gather fleet
// (internal/cluster) — which owns filtering, cursor pagination and
// disclosure redaction: the same runner the binary read path serves,
// so HTTP and binary observers see byte-identical decisions.
type Server struct {
	b       backend
	mux     *http.ServeMux
	started time.Time
	// ingest, when set, is the binary pipelined listener beside this
	// surface; its counters join /metrics so one scrape covers both.
	ingest *ingest.Server
	// auth, when set, turns on identity enforcement (SetAuth): every
	// endpoint except /healthz and /metrics requires a resolved grant,
	// checked per operation exactly like the binary surface checks it.
	auth *auth.Guard

	requests atomic.Uint64
	badReqs  atomic.Uint64
}

// backend is what a role serves from. The shared handlers decode,
// authorise and paginate; the backend does the part that depends on
// where the log lives. A failure it returns as a *statusError keeps
// that status; any other error is the client's (400).
type backend interface {
	// Run serves both log endpoints.
	query.Runner
	// refuseWrite answers a mutating request this node must not take
	// (a replica's redirect) and reports whether it did.
	refuseWrite(w http.ResponseWriter, r *http.Request) bool
	// admit vets one action's principal before any action is appended.
	admit(principal string) error
	// append commits a decoded, authorised batch and returns the
	// response body; single marks a one-action (non-array) request.
	append(acts []logs.Action, single bool) (any, error)
	// audit answers a decoded Definition-3 claim whose observer is
	// already pinned to the caller's grant, writing the verdict.
	audit(w http.ResponseWriter, req AuditRequest, k syntax.Prov) error
	// principals lists the principals visible to observer, name-sorted.
	principals(observer string) ([]PrincipalDTO, error)
	compact(principal string) error
	// clusterMap reports the partition map's epoch and leader count
	// when this role belongs to a partitioned fleet.
	clusterMap() (epoch uint64, leaders int, ok bool)
	// health and metrics add the role's own /healthz fields and
	// /metrics lines.
	health(h map[string]any)
	metrics(w io.Writer)
}

// statusError is a backend failure carrying its own HTTP status.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }

func newServer(b backend) *Server {
	s := &Server{b: b, mux: http.NewServeMux(), started: time.Now()}
	s.mux.HandleFunc("POST /append", s.handleAppend)
	s.mux.HandleFunc("GET /log", s.handleLog)
	s.mux.HandleFunc("GET /log/{principal}", s.handleLog)
	s.mux.HandleFunc("POST /audit", s.handleAudit)
	s.mux.HandleFunc("POST /compact", s.handleCompact)
	s.mux.HandleFunc("GET /principals", s.handlePrincipals)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// AttachIngest joins a binary listener's counters to /metrics, so one
// scrape covers both surfaces.
func (s *Server) AttachIngest(in *ingest.Server) { s.ingest = in }

// SetAuth turns on identity enforcement. Pass the same Guard as
// ingest.Options.Auth so both surfaces share one identity map and one
// set of provd_auth_* rejection counters.
func (s *Server) SetAuth(g *auth.Guard) { s.auth = g }

// grantKey stashes the request's resolved grant in its context.
type grantKey struct{}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.auth != nil && r.URL.Path != "/healthz" && r.URL.Path != "/metrics" {
		// Health and metrics stay open — probes and scrapers carry no
		// identity, and neither endpoint discloses log content.
		grant := s.resolveGrant(r)
		if grant == nil {
			s.auth.ConnRejects.Add(1)
			writeJSON(w, http.StatusUnauthorized, map[string]string{
				"error": "no known identity: present a client certificate or bearer token",
			})
			return
		}
		r = r.WithContext(context.WithValue(r.Context(), grantKey{}, grant))
	}
	s.mux.ServeHTTP(w, r)
}

// resolveGrant maps the request to an identity: the verified client
// certificate first (the mTLS shape), then an Authorization bearer
// token against the auth map's token table (the dev shape). Nil if
// neither names a known identity.
func (s *Server) resolveGrant(r *http.Request) *auth.Grant {
	if r.TLS != nil && len(r.TLS.PeerCertificates) > 0 {
		if gr := s.auth.GrantForCert(r.TLS.PeerCertificates); gr != nil {
			return gr
		}
	}
	if tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer "); ok {
		return s.auth.Map.ByToken(tok)
	}
	return nil
}

// grantFrom recovers the grant ServeHTTP resolved (nil when
// enforcement is off).
func grantFrom(r *http.Request) *auth.Grant {
	g, _ := r.Context().Value(grantKey{}).(*auth.Grant)
	return g
}

// forbidRole writes the 403 for an operation the grant's roles do not
// cover, bumping the given rejection counter.
func (s *Server) forbidRole(w http.ResponseWriter, ctr *atomic.Uint64, grant *auth.Grant, role string) {
	ctr.Add(1)
	writeJSON(w, http.StatusForbidden, map[string]string{
		"error": fmt.Sprintf("identity %q lacks the %s role", grant.Name, role),
	})
}

// coerceRead gates a read on the grant's read role and pins its
// observer to the grant — whatever view the caller asked for (including
// the full, unredacted "" view), it reads as the observer its identity
// maps to; replica-role grants pass through. Reports whether the read
// may proceed.
func (s *Server) coerceRead(w http.ResponseWriter, r *http.Request, observer *string) bool {
	grant := grantFrom(r)
	if grant == nil {
		return true
	}
	if !grant.CanRead() {
		s.forbidRole(w, &s.auth.QueryRejects, grant, "read")
		return false
	}
	*observer = grant.CoerceObserver(*observer)
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) clientError(w http.ResponseWriter, err error) {
	s.badReqs.Add(1)
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// fail writes a backend failure: its own status for a *statusError,
// 400 otherwise.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var se *statusError
	if errors.As(err, &se) {
		writeJSON(w, se.code, map[string]string{"error": se.Error()})
		return
	}
	s.clientError(w, err)
}

const maxBodyBytes = 1 << 20

// handleAppend appends one action — or, when the body is a JSON array,
// a whole batch — through the backend: durably into the store on a
// node (one lock round per batch), routed by owning principal on a
// coordinator. This is the ingestion path for middlewares that are not
// in-process (an in-process runtime.Net uses the sink hook directly);
// a remote mirror draining its own async pipeline should post batches,
// matching the store's AppendBatch fast path. The whole batch must be
// within the grant's principal set — rejecting it entire keeps the
// "error means none appended" contract the binary surface gives.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.b.refuseWrite(w, r) {
		return
	}
	grant := grantFrom(r)
	if grant != nil && !grant.CanAppend() {
		s.forbidRole(w, &s.auth.AppendRejects, grant, "append")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.clientError(w, fmt.Errorf("reading body: %w", err))
		return
	}
	dtos, single, err := decodeActions(body)
	if err != nil {
		s.clientError(w, err)
		return
	}
	acts := make([]logs.Action, len(dtos))
	for i, dto := range dtos {
		a, err := dto.action()
		if err != nil {
			if !single {
				err = fmt.Errorf("action %d: %w", i, err)
			}
			s.clientError(w, err)
			return
		}
		if grant != nil && !grant.AllowsPrincipal(a.Principal) {
			s.auth.AppendRejects.Add(1)
			writeJSON(w, http.StatusForbidden, map[string]string{
				"error": fmt.Sprintf("identity %q may not append as principal %q", grant.Name, a.Principal),
			})
			return
		}
		if err := s.b.admit(a.Principal); err != nil {
			s.fail(w, err)
			return
		}
		acts[i] = a
	}
	resp, err := s.b.append(acts, single)
	if err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// decodeActions decodes an /append body: a JSON array is a batch
// (single false, never empty), anything else one action.
func decodeActions(body []byte) (dtos []ActionDTO, single bool, err error) {
	if t := bytes.TrimLeft(body, " \t\r\n"); len(t) > 0 && t[0] == '[' {
		if err := json.Unmarshal(t, &dtos); err != nil {
			return nil, false, fmt.Errorf("decoding action batch: %w", err)
		}
		if len(dtos) == 0 {
			return nil, false, fmt.Errorf("empty action batch")
		}
		return dtos, false, nil
	}
	var dto ActionDTO
	if err := json.Unmarshal(body, &dto); err != nil {
		return nil, true, fmt.Errorf("decoding action: %w", err)
	}
	return []ActionDTO{dto}, true, nil
}

// recordDTOs converts a query page (already redacted for its observer)
// to the JSON shape.
func recordDTOs(recs []wire.Record) []RecordDTO {
	dtos := make([]RecordDTO, len(recs))
	for i, r := range recs {
		dtos[i] = RecordDTO{Seq: r.Seq, Action: actionDTO(r.Act)}
	}
	return dtos
}

// logQuery assembles the query shared by /log and /log/{principal}
// from the URL: ?observer=, ?limit= (page size, default 10000),
// ?cursor= (resume a walk), ?chan= / ?kind= (index filters), ?from=
// (ascending walk from a sequence number; without it the page is the
// most recent records, whose cursor pages backwards through history).
func logQuery(r *http.Request, principal string) (query.Query, error) {
	v := r.URL.Query()
	limit, err := query.ParseLimit(v.Get("limit"))
	if err != nil {
		return query.Query{}, err
	}
	q := query.Query{
		Principal: principal,
		Observer:  v.Get("observer"),
		Channel:   v.Get("chan"),
		Limit:     limit,
		Cursor:    v.Get("cursor"),
		Tail:      true,
	}
	if k := v.Get("kind"); k != "" {
		kind, err := kindOf(k)
		if err != nil {
			return query.Query{}, err
		}
		q.Kind, q.KindSet = kind, true
	}
	if from := v.Get("from"); from != "" {
		q.Tail = false
		seq, err := strconv.ParseUint(from, 10, 64)
		if err != nil {
			return query.Query{}, fmt.Errorf("invalid from %q", from)
		}
		q.MinSeq = seq
	}
	return q, nil
}

// handleLog serves the global log (GET /log) or one principal's shard
// (GET /log/{principal}) through the backend's runner: redacted for
// ?observer=, filtered by ?chan=/?kind=, paginated by ?limit= and
// ?cursor= (?from= walks forward instead). A shard query is keyed by
// the acting principal, so masking the records would still disclose
// who acted: the runner denies the whole shard (403) to observers the
// principal hides from.
func (s *Server) handleLog(w http.ResponseWriter, r *http.Request) {
	q, err := logQuery(r, r.PathValue("principal"))
	if err != nil {
		s.clientError(w, err)
		return
	}
	if !s.coerceRead(w, r, &q.Observer) {
		return
	}
	// An explicit ?limit=0 is a probe: run a minimal query (so denial
	// and cursor validation still apply) but serve no records.
	probe := q.Limit == 0
	if probe {
		q.Limit = 1
	}
	page, err := s.b.Run(q)
	switch {
	case errors.Is(err, query.ErrDenied):
		writeJSON(w, http.StatusForbidden, map[string]string{
			"error": fmt.Sprintf("principal %s does not disclose its log to %q", q.Principal, q.Observer),
		})
		return
	case err != nil:
		s.clientError(w, err)
		return
	}
	if probe {
		page.Records, page.Cursor = nil, ""
	}
	writeJSON(w, http.StatusOK, LogResponse{
		Principal: q.Principal,
		Observer:  q.Observer,
		Records:   recordDTOs(page.Records),
		Log:       query.SpineString(page.Records),
		Cursor:    page.Cursor,
	})
}

// handleAudit decodes a Definition-3 claim V:κ — does the log justify
// it? — and hands it to the backend. The provenance echoed back is the
// observer's redacted view, and the observer is pinned to the caller's
// grant here, before either backend sees the claim.
func (s *Server) handleAudit(w http.ResponseWriter, r *http.Request) {
	var req AuditRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.clientError(w, fmt.Errorf("decoding audit request: %w", err))
		return
	}
	if req.Value == "" {
		s.clientError(w, fmt.Errorf("audit needs a value"))
		return
	}
	// An empty observer asks for no provenance echo at all — nothing
	// to coerce; a named one is pinned to the grant's view.
	observer := req.Observer
	if !s.coerceRead(w, r, &observer) {
		return
	}
	if req.Observer != "" {
		req.Observer = observer
	}
	k, err := provOf(req.Prov, 0)
	if err != nil {
		s.clientError(w, err)
		return
	}
	if err := s.b.audit(w, req, k); err != nil {
		s.fail(w, err)
	}
}

// handleCompact compacts one shard (?principal=name) or all shards.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if s.b.refuseWrite(w, r) {
		return
	}
	if grant := grantFrom(r); grant != nil && !grant.CanAppend() {
		// Compaction rewrites the log: a write-class operation.
		s.forbidRole(w, &s.auth.AppendRejects, grant, "append")
		return
	}
	if err := s.b.compact(r.URL.Query().Get("principal")); err != nil {
		s.fail(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handlePrincipals lists known shards, omitting principals that hide
// from the requesting observer — the same existence fact the shard
// endpoint's 403 protects. Without pagination parameters the response
// is the historical bare JSON array; ?limit= (or ?cursor=) switches to
// a paginated object carrying per-principal record counts and a resume
// cursor.
func (s *Server) handlePrincipals(w http.ResponseWriter, r *http.Request) {
	v := r.URL.Query()
	observer := v.Get("observer")
	if !s.coerceRead(w, r, &observer) {
		return
	}
	visible, err := s.b.principals(observer)
	if err != nil {
		s.fail(w, err)
		return
	}
	if v.Get("limit") == "" && v.Get("cursor") == "" {
		ps := make([]string, len(visible))
		for i, pc := range visible {
			ps[i] = pc.Principal
		}
		writeJSON(w, http.StatusOK, ps)
		return
	}
	limit, err := query.ParseLimit(v.Get("limit"))
	if err != nil {
		s.clientError(w, err)
		return
	}
	if limit == 0 {
		// Unlike /log (where limit=0 is a historical probe), principal
		// pagination is new: an empty page with no cursor would be
		// indistinguishable from an exhausted walk, so refuse it.
		s.clientError(w, fmt.Errorf("principals pagination needs a positive limit"))
		return
	}
	if after, ok := decodePrincipalCursor(v.Get("cursor")); ok {
		i := sort.Search(len(visible), func(i int) bool { return visible[i].Principal > after })
		visible = visible[i:]
	} else if v.Get("cursor") != "" {
		s.clientError(w, fmt.Errorf("%w: unrecognised principals cursor", query.ErrBadCursor))
		return
	}
	resp := PrincipalsResponse{Principals: append([]PrincipalDTO{}, visible[:min(limit, len(visible))]...)}
	if len(visible) > limit {
		resp.Cursor = encodePrincipalCursor(visible[limit-1].Principal)
	}
	writeJSON(w, http.StatusOK, resp)
}

// Principal-list cursors: the list is name-sorted, so "after this name"
// is a stable resume point no record walk is needed for.
func encodePrincipalCursor(name string) string {
	return base64.RawURLEncoding.EncodeToString([]byte("p1." + name))
}

func decodePrincipalCursor(s string) (string, bool) {
	if s == "" {
		return "", false
	}
	b, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil || !strings.HasPrefix(string(b), "p1.") {
		return "", false
	}
	return string(b[3:]), true
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.started).Seconds(),
	}
	if epoch, leaders, ok := s.b.clusterMap(); ok {
		h["epoch"], h["leaders"] = epoch, leaders
	}
	s.b.health(h)
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics exposes the server's, the role's and the attached
// listener's counters in the conventional one-gauge-per-line text
// form. Partitioned roles add the map epoch and leader count, so an
// operator can confirm a map rollout converged on every node.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "provd_http_requests_total %d\n", s.requests.Load())
	fmt.Fprintf(w, "provd_http_bad_requests_total %d\n", s.badReqs.Load())
	fmt.Fprintf(w, "provd_uptime_seconds %.3f\n", time.Since(s.started).Seconds())
	s.b.metrics(w)
	if epoch, leaders, ok := s.b.clusterMap(); ok {
		fmt.Fprintf(w, "provd_cluster_epoch %d\n", epoch)
		fmt.Fprintf(w, "provd_cluster_leaders %d\n", leaders)
	}
	if s.ingest != nil {
		in := s.ingest.Stats()
		fmt.Fprintf(w, "provd_ingest_connections_total %d\n", in.Accepted)
		fmt.Fprintf(w, "provd_ingest_connections_active %d\n", in.Active)
		fmt.Fprintf(w, "provd_ingest_requests_total %d\n", in.Requests)
		fmt.Fprintf(w, "provd_ingest_records_total %d\n", in.Records)
		fmt.Fprintf(w, "provd_ingest_commits_total %d\n", in.Commits)
		fmt.Fprintf(w, "provd_ingest_rejects_total %d\n", in.Rejects)
		fmt.Fprintf(w, "provd_ingest_conn_failures_total %d\n", in.ConnFails)
		fmt.Fprintf(w, "provd_ingest_sessions_total %d\n", in.Sessions)
		fmt.Fprintf(w, "provd_ingest_dedup_replays_total %d\n", in.DedupReplays)
		fmt.Fprintf(w, "provd_ingest_dedup_records_total %d\n", in.DedupRecords)
		fmt.Fprintf(w, "provd_ingest_dedup_evicted_total %d\n", in.DedupEvicted)
		fmt.Fprintf(w, "provd_ingest_dedup_checkpoint_failures_total %d\n", in.CheckpointFails)
		fmt.Fprintf(w, "provd_ingest_queries_total %d\n", in.Queries)
		fmt.Fprintf(w, "provd_ingest_query_records_total %d\n", in.QueryRecords)
		fmt.Fprintf(w, "provd_ingest_follows_total %d\n", in.Follows)
		fmt.Fprintf(w, "provd_ingest_query_rejects_total %d\n", in.QueryRejects)
		fmt.Fprintf(w, "provd_ingest_snapshots_total %d\n", in.Snapshots)
		fmt.Fprintf(w, "provd_ingest_snapshot_records_total %d\n", in.SnapshotRecords)
		fmt.Fprintf(w, "provd_ingest_parked_conns %d\n", in.Parked)
		fmt.Fprintf(w, "provd_ingest_parks_total %d\n", in.Parks)
		fmt.Fprintf(w, "provd_ingest_wakes_total %d\n", in.Wakes)
	}
	ps := wire.PoolStats()
	fmt.Fprintf(w, "provd_wire_pool_hits_total %d\n", ps.Hits)
	fmt.Fprintf(w, "provd_wire_pool_misses_total %d\n", ps.Misses)
	fmt.Fprintf(w, "provd_wire_pool_returns_total %d\n", ps.Returns)
	if s.auth != nil {
		fmt.Fprintf(w, "provd_auth_conn_rejects_total %d\n", s.auth.ConnRejects.Load())
		fmt.Fprintf(w, "provd_auth_append_rejects_total %d\n", s.auth.AppendRejects.Load())
		fmt.Fprintf(w, "provd_auth_query_rejects_total %d\n", s.auth.QueryRejects.Load())
		fmt.Fprintf(w, "provd_auth_snapshot_rejects_total %d\n", s.auth.SnapshotRejects.Load())
	}
}
