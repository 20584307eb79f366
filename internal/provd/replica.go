package provd

// Replica mode: the node surface over a replicated store. Every read
// endpoint — log, audit, principals, follow via the attached binary
// listener — already runs against whatever store the node wraps, so
// replica mode only has to do three things: refuse writes
// with a pointer at the leader, report its role honestly on /healthz,
// and export replication lag on /metrics. cmd/provd enables it with
// -replica-of.

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/replica"
)

// SetReplica puts the server in replica mode: mutating endpoints are
// refused (redirected to leaderHTTP when set, 503 with the leader's
// ingest address otherwise), and /healthz and /metrics report the
// replicator's role, applied sequence and lag.
func (s *Server) SetReplica(rep *replica.Replicator, leaderHTTP string) {
	n := s.local()
	n.replica, n.leaderHTTP = rep, leaderHTTP
}

// refuseWrite answers a mutating request on a replica — compaction
// too, since the Replicator must stay the store's only writer: a 307
// redirect when the leader's HTTP base is known (the client may replay
// the same body there), a 503 naming the leader's ingest address
// otherwise.
func (n *node) refuseWrite(w http.ResponseWriter, r *http.Request) bool {
	switch {
	case n.replica == nil:
		return false
	case n.leaderHTTP != "":
		http.Redirect(w, r, n.leaderHTTP+r.URL.RequestURI(), http.StatusTemporaryRedirect)
	default:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{
			"error":  "read-only replica: writes must go to the leader",
			"leader": n.replica.Status().Leader,
		})
	}
	return true
}

// replicaHealth folds the replicator's status into the health payload.
func (n *node) replicaHealth(h map[string]any) {
	st := n.replica.Status()
	h["role"] = "replica"
	h["leader"] = st.Leader
	h["applied_seq"] = st.AppliedSeq
	h["lag_records"] = st.LagRecords
	h["lag_seconds"] = st.LagSeconds
	if st.Diverged {
		h["status"] = "diverged"
	} else if !st.Running {
		h["status"] = "stopped"
	}
}

// replicaMetrics emits the replication gauges on /metrics.
func (n *node) replicaMetrics(w io.Writer) {
	st := n.replica.Status()
	fmt.Fprintf(w, "provd_replica_applied_seq %d\n", st.AppliedSeq)
	fmt.Fprintf(w, "provd_replica_leader_seq %d\n", st.LeaderSeq)
	fmt.Fprintf(w, "provd_replica_lag_records %d\n", st.LagRecords)
	fmt.Fprintf(w, "provd_replica_lag_seconds %.3f\n", st.LagSeconds)
	fmt.Fprintf(w, "provd_replica_bootstraps_total %d\n", st.Bootstraps)
	fmt.Fprintf(w, "provd_replica_bootstrap_records_total %d\n", st.BootstrapRecords)
	fmt.Fprintf(w, "provd_replica_follows_total %d\n", st.Follows)
	fmt.Fprintf(w, "provd_replica_applied_batches_total %d\n", st.AppliedBatches)
	fmt.Fprintf(w, "provd_replica_applied_records_total %d\n", st.AppliedRecords)
	fmt.Fprintf(w, "provd_replica_gaps_total %d\n", st.Gaps)
	fmt.Fprintf(w, "provd_replica_gaps_accepted_total %d\n", st.GapsAccepted)
	diverged := 0
	if st.Diverged {
		diverged = 1
	}
	fmt.Fprintf(w, "provd_replica_diverged %d\n", diverged)
}
