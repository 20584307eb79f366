package query

import "repro/internal/wire"

// Run executes one page of a query: compile the filters to a plan,
// resolve the cursor, fetch one bounded batch through the store's scan
// primitives, redact for the observer, and mint the next cursor if the
// walk has more. See the package comment for the stability contract.
func (e *Engine) Run(q Query) (Page, error) {
	if q.Principal != "" && e.policy.Hides(q.Principal, q.Observer) {
		e.denials.Add(1)
		return Page{}, ErrDenied
	}
	limit := q.Limit
	if limit <= 0 {
		limit = DefaultLimit
	}
	fhash := fnv32a(q.filterKey())

	// Resolve the walk position: fresh queries snapshot here; cursors
	// carry their walk's direction, boundary and snapshot.
	back := q.Tail
	from, snap := q.MinSeq, q.CeilSeq
	backCeil := uint64(0) // back walk: exclusive upper bound of this page
	if q.Cursor != "" {
		c, err := decodeCursor(q.Cursor, fhash)
		if err != nil {
			e.badCursors.Add(1)
			return Page{}, err
		}
		back = c.back
		snap = c.snap
		if back {
			backCeil = c.boundary
		} else {
			from = c.boundary
			if snap == 0 {
				// A follow-resume cursor is unbounded; re-snapshot so
				// this paginated walk is stable like any other.
				snap = e.st.NextSeq()
			}
		}
	} else {
		if snap == 0 {
			snap = e.st.NextSeq()
		}
		if back {
			backCeil = snap
		}
	}

	// Fetch limit+1: the extra record is the cheapest exact "is there
	// more" probe, and it is never served.
	var recs []wire.Record
	more := false
	if back {
		recs = e.fetchBack(q, backCeil, limit+1)
		// The tail fetch runs to the window's bottom; records below
		// MinSeq mean the walk has reached its floor.
		for len(recs) > 0 && recs[0].Seq < q.MinSeq {
			recs = recs[1:]
		}
		if len(recs) > limit {
			more = true
			recs = recs[len(recs)-limit:]
		}
	} else {
		recs = e.fetchFwd(q, from, snap, limit+1)
		if len(recs) > limit {
			more = true
			recs = recs[:limit]
		}
	}

	page := Page{Records: e.viewRecords(recs, q.Observer), Snapshot: snap}
	if more {
		if back {
			page.Cursor = encodeCursor(cursor{back: true, boundary: recs[0].Seq, snap: snap, fhash: fhash})
		} else {
			page.Cursor = encodeCursor(cursor{boundary: recs[len(recs)-1].Seq + 1, snap: snap, fhash: fhash})
		}
	}
	e.queries.Add(1)
	e.records.Add(uint64(len(page.Records)))
	return page, nil
}

// fetchFwd returns up to max records matching q with sequence numbers
// in [from, ceil), ascending: one shard scan for a principal, else one
// global scan — the cached global merge when unfiltered, a k-way merge
// over the shards' indexes when filtered. Either way the cost follows
// the page (plus O(shards) slice-header copies for a filtered global
// scan), never any shard's size.
func (e *Engine) fetchFwd(q Query, from, ceil uint64, max int) []wire.Record {
	if q.Principal != "" {
		return e.st.ScanShard(q.Principal, q.filter(), from, ceil, max)
	}
	return e.st.ScanFiltered(q.filter(), from, ceil, max)
}

// fetchBack returns up to n of the most recent records matching q below
// ceil, ascending, through the same two plans as fetchFwd.
func (e *Engine) fetchBack(q Query, ceil uint64, n int) []wire.Record {
	if q.Principal != "" {
		return e.st.ScanShardTail(q.Principal, q.filter(), ceil, n)
	}
	return e.st.ScanFilteredTail(q.filter(), ceil, n)
}

// viewRecords redacts a batch for its observer, in place of the copies
// the scans returned. Redaction happens on the decoded records, before
// any DTO or wire conversion downstream, so no consumer can serve an
// unmasked action by re-parsing.
func (e *Engine) viewRecords(recs []wire.Record, observer string) []wire.Record {
	for i, r := range recs {
		viewed := e.policy.ViewAction(r.Act, observer)
		if viewed.Principal != r.Act.Principal {
			e.redactions.Add(1)
		}
		// Apply unconditionally: the counter's principal comparison is
		// bookkeeping, not the disclosure decision — a future ViewAction
		// that redacts terms without touching the principal must still
		// be served.
		recs[i].Act = viewed
	}
	return recs
}
