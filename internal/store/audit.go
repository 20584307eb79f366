package store

import (
	"fmt"
	"sort"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/syntax"
	"repro/internal/wire"
)

// Indexed Definition-3 audits. The global log φ the store holds is a
// spine: every stored record, newest first. Deciding ⟦V:κ⟧ ≼ φ with
// logs.Le on that spine applies Log-Pre2 once per record it skips, so
// every audit costs O(|φ|). But Log-Pre1 only ever matches a left action
// against a right one by the same principal and of the same kind
// (logs.MatchAction), and each shard already keeps exactly that list:
// byKind, sorted by sequence number. So the search below jumps straight
// to the candidates instead of skipping everything else.
//
// Against a spine, "the log below a record" is "the records with a
// smaller sequence number", so the search carries a ceiling instead of a
// log: the root ceiling is the snapshot's hole-free upTo, and matching a
// left prefix against record r recurses on its continuation with r.Seq
// as the new ceiling. Candidates are tried newest first, as Le would meet
// them. The verdict is exactly Le's on the spine at the same snapshot:
// the only records the search never looks at are ones Le would skip
// (Log-Pre2) without matching.
//
// Cost: each left prefix scans only its principal's same-kind records
// below its ceiling, so an audit costs O(|⟦V:κ⟧| × those records) before
// backtracking, where Le paid O(|φ|) per left prefix. Shards are
// append-only once open, so an index prefix copied under the stripe lock
// stays valid after the lock is released; the search holds no lock while
// it matches.

// AuditTerm runs the Definition-3 correctness check for one claimed
// value V:κ against the recovered global log: ⟦V:κ⟧ ≼ φ. V may be the
// unknown-channel symbol ? (logs.UnknownT).
func (s *Store) AuditTerm(t logs.Term, k syntax.Prov) error {
	s.metrics.Audits.Add(1)
	_, _, upTo := s.globalSnapshot()
	if !s.justified(denote.DenoteTerm(t, k), upTo) {
		s.metrics.AuditFailures.Add(1)
		return fmt.Errorf("store: value %s:(%s) has provenance not justified by the stored log", t, k)
	}
	return nil
}

// Audit checks an annotated value against the recovered global log
// (Definition 3), mirroring runtime.Net.AuditValue on the durable state.
func (s *Store) Audit(v syntax.AnnotatedValue) error {
	return s.AuditTerm(logs.NameT(v.V.Name), v.K)
}

// justified decides phi ≼ ψ, where ψ is the spine of the stored records
// with sequence numbers below ceil.
func (s *Store) justified(phi logs.Log, ceil uint64) bool {
	switch l := phi.(type) {
	case logs.Empty:
		return true // Log-Nil
	case *logs.Comp:
		// Log-Comp1: both components against the same log.
		return s.justified(l.L, ceil) && s.justified(l.R, ceil)
	case *logs.Pre:
		recs, idx := s.kindIndex(l.Act.Principal, l.Act.Kind)
		// At the root ceiling every indexed record usually qualifies:
		// search only when the newest does not.
		hi := len(idx)
		if hi > 0 && recs[idx[hi-1]].Seq >= ceil {
			hi = sort.Search(hi, func(i int) bool { return recs[idx[i]].Seq >= ceil })
		}
		for i := hi - 1; i >= 0; i-- {
			r := &recs[idx[i]]
			// Log-Pre1 on r, after Log-Pre2 over everything newer.
			if sigma, ok := logs.MatchAction(l.Act, r.Act); ok && s.justified(logs.ApplySubst(l.Rest, sigma), r.Seq) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("store: audit: unknown log %T", phi))
	}
}

// kindIndex returns a principal's records and its index of one action
// kind into them, as of now. The stripe lock is held only to copy the
// two slice headers.
func (s *Store) kindIndex(principal string, k logs.ActKind) ([]wire.Record, []int) {
	s.mu.RLock()
	sh := s.shards[principal]
	s.mu.RUnlock()
	if sh == nil {
		return nil, nil
	}
	st := s.stripeFor(principal)
	st.Lock()
	recs, idx := sh.recs, sh.byKind[k]
	st.Unlock()
	return recs, idx
}
