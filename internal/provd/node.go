package provd

// Node role: the surface over this process's own store.Store. Reads
// and audits run on the store's typed query engine; appends land in the
// store, refused toward the leader on a replica (replica.go) and toward
// the owner for principals a partition leader does not own.

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/trust"
)

// node is the local backend: a store plus its query engine.
type node struct {
	*query.Engine
	st *store.Store
	// replica, when set, puts the node in replica mode (replica.go):
	// reads serve locally, writes are refused toward the leader,
	// health and metrics carry role and lag.
	replica    *replica.Replicator
	leaderHTTP string
	// cluster, when set, makes this node one partition leader
	// (SetCluster): HTTP appends for principals it does not own are
	// refused with 421, mirroring the binary surface's per-request
	// "cluster:" reject — a principal's records must live on exactly
	// one leader or audit locality breaks.
	cluster ingest.ClusterView
}

// NewServer serves the provd surface over a store. A nil policy means
// full disclosure.
func NewServer(st *store.Store, policy *trust.DisclosurePolicy) *Server {
	if policy == nil {
		policy = trust.NewDisclosurePolicy()
	}
	return newServer(&node{Engine: query.NewEngine(st, policy), st: st})
}

// local returns the node backend; the node-only accessors below panic
// on a coordinator.
func (s *Server) local() *node { return s.b.(*node) }

// Engine exposes the node's query engine so the binary read path can
// share it (ingest.Options.Engine): one engine, one set of
// redaction/denial counters, whichever surface served the read.
func (s *Server) Engine() *query.Engine { return s.local().Engine }

// SetCluster marks this node a partition leader. Pass the same view as
// ingest.Options.Cluster so both write surfaces enforce one ownership
// decision, and /healthz and /metrics report the view's epoch.
func (s *Server) SetCluster(cv ingest.ClusterView) { s.local().cluster = cv }

func (n *node) admit(principal string) error {
	if n.cluster == nil || n.cluster.Owns(principal) {
		return nil
	}
	return &statusError{http.StatusMisdirectedRequest, fmt.Errorf(
		"cluster: not owner of principal %q at epoch %d: refetch the map and re-route", principal, n.cluster.Epoch())}
}

// append commits a single action ({seq}) or a batch in one lock round:
// the batch's actions receive the contiguous sequence numbers
// seq .. seq+count-1, in body order.
func (n *node) append(acts []logs.Action, single bool) (any, error) {
	if single {
		seq, err := n.st.Append(acts[0])
		if err != nil {
			return nil, appendStatus(err)
		}
		return AppendResponse{Seq: seq}, nil
	}
	base, err := n.st.AppendBatch(acts)
	if err != nil {
		return nil, appendStatus(err)
	}
	return BatchAppendResponse{Seq: base, Count: len(acts)}, nil
}

// appendStatus maps a store append failure to its HTTP status.
func appendStatus(err error) error {
	switch {
	case errors.Is(err, store.ErrInvalidAction):
		return err
	case errors.Is(err, store.ErrShardLimit):
		return &statusError{http.StatusTooManyRequests, err}
	default:
		return &statusError{http.StatusInternalServerError, err}
	}
}

// audit runs the Definition-3 correctness check against the stored
// global log.
func (n *node) audit(w http.ResponseWriter, req AuditRequest, k syntax.Prov) error {
	term := logs.NameT(req.Value)
	if req.Value == "?" {
		term = logs.UnknownT()
	}
	resp := AuditResponse{Correct: true}
	if err := n.AuditTerm(term, k); err != nil {
		resp.Correct = false
		resp.Detail = err.Error()
	}
	if req.Observer != "" {
		resp.ProvView = eventDTOs(n.ViewProv(k, req.Observer))
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// principals reads the engine's lock-free counts snapshot, so listing
// never touches the append path's stripe locks.
func (n *node) principals(observer string) ([]PrincipalDTO, error) {
	visible := n.VisibleCounts(observer).Principals
	out := make([]PrincipalDTO, len(visible))
	for i, pc := range visible {
		out[i] = PrincipalDTO{Principal: pc.Principal, Records: pc.Records}
	}
	return out, nil
}

func (n *node) compact(principal string) error {
	var err error
	if principal == "" {
		err = n.st.CompactAll()
	} else {
		err = n.st.Compact(principal)
	}
	if err != nil {
		return &statusError{http.StatusInternalServerError, err}
	}
	return nil
}

func (n *node) clusterMap() (uint64, int, bool) {
	if n.cluster == nil {
		return 0, 0, false
	}
	m := n.cluster.WireMap()
	return m.Epoch, len(m.Leaders), true
}

func (n *node) health(h map[string]any) {
	h["role"] = "leader"
	h["next_seq"] = n.st.NextSeq()
	if n.replica != nil {
		n.replicaHealth(h)
	}
}

// metrics reports the engine and store counters; store sizes come from
// the lock-free Counts snapshot, so scraping never touches the append
// path's stripe locks.
func (n *node) metrics(w io.Writer) {
	st := n.st.Stats()
	qs := n.Stats()
	fmt.Fprintf(w, "provd_redactions_total %d\n", qs.Redactions+qs.Denials)
	fmt.Fprintf(w, "provd_query_pages_total %d\n", qs.Queries)
	fmt.Fprintf(w, "provd_query_records_total %d\n", qs.Records)
	fmt.Fprintf(w, "provd_query_denials_total %d\n", qs.Denials)
	fmt.Fprintf(w, "provd_query_bad_cursors_total %d\n", qs.BadCursors)
	fmt.Fprintf(w, "provd_store_appends_total %d\n", st.Appends)
	fmt.Fprintf(w, "provd_store_batch_appends_total %d\n", st.BatchAppends)
	fmt.Fprintf(w, "provd_store_appended_bytes_total %d\n", st.AppendedBytes)
	fmt.Fprintf(w, "provd_store_rotations_total %d\n", st.Rotations)
	fmt.Fprintf(w, "provd_store_compactions_total %d\n", st.Compactions)
	fmt.Fprintf(w, "provd_store_audits_total %d\n", st.Audits)
	fmt.Fprintf(w, "provd_store_audit_failures_total %d\n", st.AuditFailures)
	fmt.Fprintf(w, "provd_store_recovered_records_total %d\n", st.RecoveredRecords)
	fmt.Fprintf(w, "provd_store_truncated_bytes_total %d\n", st.TruncatedBytes)
	fmt.Fprintf(w, "provd_store_shard_cap_rejects_total %d\n", st.ShardCapRejects)
	fmt.Fprintf(w, "provd_store_principals %d\n", st.Principals)
	fmt.Fprintf(w, "provd_store_records %d\n", st.Records)
	fmt.Fprintf(w, "provd_store_sessions %d\n", st.Sessions)
	fmt.Fprintf(w, "provd_store_session_entries %d\n", st.SessionEntries)
	fmt.Fprintf(w, "provd_store_session_compactions_total %d\n", st.SessionCompactions)
	fmt.Fprintf(w, "provd_store_sessions_evicted_total %d\n", st.SessionsEvicted)
	fmt.Fprintf(w, "provd_store_next_seq %d\n", st.NextSeq)
	if n.replica != nil {
		n.replicaMetrics(w)
	}
}
