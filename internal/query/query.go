// Package query is the unified read surface over a provenance store:
// one typed query engine that every consumer of stored records — the
// provd HTTP endpoints, the binary read/follow protocol on the ingest
// listener, audits, spine rendering — goes through, instead of each
// growing its own snapshot-and-copy path against internal/store.
//
// A Query names filters (principal, channel, action kind), a global
// sequence window, the observing principal (for disclosure redaction),
// a page limit and an opaque resume cursor. The engine compiles it
// against the store's bounded scan primitives with index pushdown —
// channel and kind filters are served from the shard indexes, sequence
// windows by binary search — and executes it as a chunked walk that
// copies bounded batches, never whole shards, so a query's cost scales
// with its result size.
//
// Cursor stability. Every walk is pinned to a snapshot point: the
// store's sequence high-water at the first page (or the query's
// explicit CeilSeq). Later pages resume from a sequence-number boundary
// carried in the cursor and stay below the snapshot, so a paginated
// walk sees a gap-free, duplicate-free sequence of records up to the
// snapshot even while appends continue. Records past the snapshot are
// reachable by a fresh query (MinSeq = the previous snapshot) or by a
// Follower, which tails the live store through the append watcher.
//
// Disclosure. The engine redacts every served record for the query's
// observer (trust.DisclosurePolicy.ViewAction) and refuses shard
// queries whose principal hides from the observer (ErrDenied) — the
// same decisions provd made per endpoint, now in one place beneath
// every read path, HTTP and binary alike.
package query

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/trust"
	"repro/internal/wire"
)

// DefaultLimit caps a page when the query names no limit: materialising
// a multi-million-record store for one request would let a single read
// exhaust the heap. An explicit limit is honoured as given.
const DefaultLimit = 10000

// Errors the engine reports; consumers map them to their surface
// (HTTP status, query-end message).
var (
	// ErrDenied: the query's principal hides from its observer. The
	// whole shard is refused rather than served masked — a shard query
	// is keyed by the acting principal, so masking records would still
	// disclose who acted.
	ErrDenied = errors.New("query: principal does not disclose its log to this observer")
	// ErrBadCursor: the cursor is malformed or belongs to a query with
	// different filters.
	ErrBadCursor = errors.New("query: invalid cursor")
	// ErrBadQuery: the query itself is malformed (e.g. an out-of-range
	// kind).
	ErrBadQuery = errors.New("query: invalid query")
)

// Query is one typed read request against the store.
type Query struct {
	// Principal scopes the query to one shard; "" queries the merged
	// global view.
	Principal string
	// Channel, when nonempty, selects snd/rcv records on this channel
	// (index pushdown).
	Channel string
	// Kind, when KindSet, selects records of one action kind (index
	// pushdown).
	Kind    logs.ActKind
	KindSet bool
	// Observer is the principal the results are disclosed to; "" is an
	// anonymous observer (still redacted against hide-from-everybody
	// policies).
	Observer string
	// MinSeq is the inclusive lower sequence bound.
	MinSeq uint64
	// CeilSeq is the exclusive upper sequence bound; 0 snapshots the
	// store's high-water at the first page.
	CeilSeq uint64
	// Limit is the page size; <= 0 uses DefaultLimit.
	Limit int
	// Tail serves the Limit most recent records of the window instead
	// of the first from MinSeq; its cursor pages backwards through
	// older history.
	Tail bool
	// Cursor resumes a previous page's walk ("" starts fresh). The
	// query's filters must match the cursor's.
	Cursor string
}

// filterKey canonicalises the filter dimensions for the cursor's
// consistency hash.
func (q Query) filterKey() string {
	kind := byte(0xFF)
	if q.KindSet {
		kind = byte(q.Kind)
	}
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s\x00%d", q.Principal, q.Channel, kind, q.Observer, q.MinSeq)
}

func (q Query) filter() store.Filter {
	return store.Filter{Channel: q.Channel, Kind: q.Kind, KindSet: q.KindSet}
}

// Page is one served page of a walk.
type Page struct {
	// Records are the page's records, ascending by sequence number,
	// already redacted for the query's observer.
	Records []wire.Record
	// Cursor resumes the walk ("" = exhausted). For a forward walk it
	// continues toward the snapshot; for a tail query it pages
	// backwards through older records.
	Cursor string
	// Snapshot is the exclusive sequence bound the walk is stable up
	// to: no page of this walk will ever contain a record at or past
	// it, no matter how many appends race the walk.
	Snapshot uint64
}

// Stats is a snapshot of the engine's counters.
type Stats struct {
	Queries    uint64 // pages served
	Records    uint64 // records served
	Redactions uint64 // records masked for their observer
	Follows    uint64 // followers opened
	Denials    uint64 // shard queries refused by disclosure policy
	BadCursors uint64 // cursors rejected
}

// Engine executes queries against one store under one disclosure
// policy. All methods are safe for concurrent use.
type Engine struct {
	st     *store.Store
	policy *trust.DisclosurePolicy

	queries    atomic.Uint64
	records    atomic.Uint64
	redactions atomic.Uint64
	follows    atomic.Uint64
	denials    atomic.Uint64
	badCursors atomic.Uint64
}

// NewEngine wires an engine over a store. A nil policy means full
// disclosure.
func NewEngine(st *store.Store, policy *trust.DisclosurePolicy) *Engine {
	if policy == nil {
		policy = trust.NewDisclosurePolicy()
	}
	return &Engine{st: st, policy: policy}
}

// Stats snapshots the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Queries:    e.queries.Load(),
		Records:    e.records.Load(),
		Redactions: e.redactions.Load(),
		Follows:    e.follows.Load(),
		Denials:    e.denials.Load(),
		BadCursors: e.badCursors.Load(),
	}
}

// Counts is the store's cheap size snapshot (per-principal record
// counts + sequence high-water), unfiltered — the /metrics consumer.
func (e *Engine) Counts() store.Counts {
	return e.st.Counts()
}

// VisibleCounts is Counts restricted to the principals that do not hide
// from the observer — the /principals consumer.
func (e *Engine) VisibleCounts(observer string) store.Counts {
	c := e.st.Counts()
	out := store.Counts{NextSeq: c.NextSeq, Principals: c.Principals[:0:0]}
	for _, pc := range c.Principals {
		if e.policy.Hides(pc.Principal, observer) {
			e.redactions.Add(1)
			continue
		}
		out.Principals = append(out.Principals, pc)
		out.Records += pc.Records
	}
	return out
}

// AuditTerm runs the Definition-3 correctness check ⟦V:κ⟧ ≼ φ against
// the store's global log — the audit endpoint is a query-engine
// consumer like every other read.
func (e *Engine) AuditTerm(t logs.Term, k syntax.Prov) error {
	return e.st.AuditTerm(t, k)
}

// ViewProv renders a provenance as the observer may see it, counting
// the redactions.
func (e *Engine) ViewProv(k syntax.Prov, observer string) syntax.Prov {
	if n := e.policy.RedactionCount(k, observer); n > 0 {
		e.redactions.Add(uint64(n))
	}
	return e.policy.View(k, observer)
}

// Hides reports whether the policy hides a principal's records from an
// observer.
func (e *Engine) Hides(principal, observer string) bool {
	return e.policy.Hides(principal, observer)
}

// SpineString renders the log spine of a record batch (ascending
// sequence order, as pages serve them) with the most recent action
// leading, matching logs.Log.String() for linear logs — but in linear
// time and constant stack, which the recursive stringifier cannot
// promise on a multi-million-record log.
func SpineString(recs []wire.Record) string {
	if len(recs) == 0 {
		return "0"
	}
	var b strings.Builder
	for i := len(recs) - 1; i >= 0; i-- {
		if i != len(recs)-1 {
			b.WriteString("; ")
		}
		b.WriteString(recs[i].Act.String())
	}
	return b.String()
}

// ParseLimit reads a limit query parameter — the page size — defaulting
// when absent. The single copy of the parse every HTTP read endpoint
// shares.
func ParseLimit(s string) (int, error) {
	if s == "" {
		return DefaultLimit, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%w: invalid limit %q", ErrBadQuery, s)
	}
	return n, nil
}
