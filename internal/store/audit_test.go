package store_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/testutil"
)

// Differential suite for the indexed Definition-3 audit: on every store
// and claim, Store.AuditTerm must return exactly the verdict of the
// reference procedure, logs.Le over the store's global spine. Failures
// name their seed; REPRO_SEED=<n> replays one alone.

// absentPrincipal never acts in a generated log.
const absentPrincipal = "zz"

// claim is one audited value V:κ. genuine marks a claim the generator
// built from a chain it placed in the log, which must be justified.
type claim struct {
	term    logs.Term
	prov    syntax.Prov
	genuine bool
}

func (c claim) String() string { return fmt.Sprintf("%s:(%s)", c.term, c.prov) }

// oracle is the reference verdict: ⟦V:κ⟧ ≼ φ decided by logs.Le on the
// global spine.
func oracle(s *store.Store, c claim) bool {
	return logs.Le(denote.DenoteTerm(c.term, c.prov), s.GlobalLog())
}

// relayWorld is a generated relay log (oldest first) and the claims to
// audit against it.
type relayWorld struct {
	acts   []logs.Action
	claims []claim
}

// genRelayWorld draws relay chains interleaved with filler traffic.
// Each hop sends the value on one to three channels (so Log-Pre1 has
// several candidates and the channel variable's binding σ branches),
// and a channel is itself often handed to its sender by another
// principal first, so claims carry channel provenance. Some chains relay
// the unknown-channel symbol ?. Filler covers all four action kinds,
// including ift/iff. Claims: each chain's genuine provenance, that
// provenance forged at every depth (principal swapped, also for one
// absent from the store, or direction flipped), and random claims.
func genRelayWorld(rng *rand.Rand, principals int) relayWorld {
	ps := make([]string, principals)
	for i := range ps {
		ps[i] = fmt.Sprintf("p%d", i)
	}
	pick := func() string { return ps[rng.Intn(len(ps))] }
	var (
		seqs   [][]logs.Action // one per chain, oldest first
		claims []claim
		values []logs.Term
	)
	for c := 0; c < 12; c++ {
		v := logs.NameT(fmt.Sprintf("v%d", c))
		if rng.Intn(6) == 0 {
			v = logs.UnknownT()
		}
		values = append(values, v)
		hops := 1 + rng.Intn(4)
		order := rng.Perm(len(ps))[:hops+1]
		var seq []logs.Action
		var prov syntax.Prov // most recent first
		for h := 0; h < hops; h++ {
			from, to := ps[order[h]], ps[order[h+1]]
			nch := 1 + rng.Intn(3)
			used := rng.Intn(nch) // the channel the receiver listens on
			var chanProv syntax.Prov
			for k := 0; k < nch; k++ {
				ch := logs.NameT(fmt.Sprintf("c%d.%d.%d", c, h, k))
				if rng.Intn(2) == 0 {
					// Someone handed the channel to the sender first.
					q, via := pick(), logs.NameT(fmt.Sprintf("w%d.%d.%d", c, h, k))
					seq = append(seq, logs.SndAct(q, via, ch), logs.RcvAct(from, via, ch))
					if k == used {
						chanProv = syntax.Seq(syntax.InEvent(from, nil), syntax.OutEvent(q, nil))
					}
				}
				seq = append(seq, logs.SndAct(from, ch, v))
				if k == used {
					seq = append(seq, logs.RcvAct(to, ch, v))
				}
			}
			prov = prov.Push(syntax.OutEvent(from, chanProv))
			prov = prov.Push(syntax.InEvent(to, nil))
		}
		seqs = append(seqs, seq)
		claims = append(claims, claim{v, prov, true})
		for d := range prov {
			for _, mut := range []func(e *syntax.Event){
				func(e *syntax.Event) { e.Principal = pick() },
				func(e *syntax.Event) { e.Principal = absentPrincipal },
				func(e *syntax.Event) { e.Dir = 1 - e.Dir },
			} {
				forged := prov.Clone()
				mut(&forged[d])
				claims = append(claims, claim{v, forged, false})
			}
		}
	}
	var filler []logs.Action
	for f := 0; f < 400; f++ {
		v := logs.NameT(fmt.Sprintf("f%d", f))
		switch rng.Intn(10) {
		case 0, 1:
			v = values[rng.Intn(len(values))]
		case 2:
			v = logs.UnknownT()
		}
		ch := logs.NameT(fmt.Sprintf("n%d", rng.Intn(8)))
		switch p := pick(); rng.Intn(4) {
		case 0:
			filler = append(filler, logs.SndAct(p, ch, v))
		case 1:
			filler = append(filler, logs.RcvAct(p, ch, v))
		case 2:
			filler = append(filler, logs.IftAct(p, v, v))
		default:
			filler = append(filler, logs.IffAct(p, ch, v))
		}
	}
	seqs = append(seqs, filler)
	// Interleave, keeping each sequence's own order.
	var acts []logs.Action
	for len(seqs) > 0 {
		i := rng.Intn(len(seqs))
		acts = append(acts, seqs[i][0])
		if seqs[i] = seqs[i][1:]; len(seqs[i]) == 0 {
			seqs = append(seqs[:i], seqs[i+1:]...)
		}
	}
	for r := 0; r < 40; r++ {
		claims = append(claims, claim{values[rng.Intn(len(values))], randProv(rng, ps, 4, 1), false})
	}
	return relayWorld{acts: acts, claims: claims}
}

// randProv draws a provenance of up to n events over ps and the absent
// principal, nesting channel provenance up to depth levels.
func randProv(rng *rand.Rand, ps []string, n, depth int) syntax.Prov {
	var k syntax.Prov
	for i := rng.Intn(n + 1); i > 0; i-- {
		p := absentPrincipal
		if rng.Intn(8) > 0 {
			p = ps[rng.Intn(len(ps))]
		}
		var chanProv syntax.Prov
		if depth > 0 && rng.Intn(3) == 0 {
			chanProv = randProv(rng, ps, 2, depth-1)
		}
		k = append(k, syntax.Event{Principal: p, Dir: syntax.Dir(rng.Intn(2)), ChanProv: chanProv})
	}
	return k
}

// appendInBatches appends acts in random-sized AppendBatch calls.
func appendInBatches(t *testing.T, s *store.Store, rng *rand.Rand, acts []logs.Action) {
	t.Helper()
	for len(acts) > 0 {
		n := min(1+rng.Intn(16), len(acts))
		if _, err := s.AppendBatch(acts[:n]); err != nil {
			t.Fatal(err)
		}
		acts = acts[n:]
	}
}

// checkAudits compares every claim's indexed verdict with the oracle's
// and returns how many were justified. When full is set, the log holds
// every generated chain, so genuine claims must hold.
func checkAudits(t *testing.T, s *store.Store, claims []claim, full bool) (justified int) {
	t.Helper()
	for _, c := range claims {
		want := oracle(s, c)
		if full && c.genuine && !want {
			t.Fatalf("claim %s: a chain placed in the log is not justified", c)
		}
		if got := s.AuditTerm(c.term, c.prov) == nil; got != want {
			t.Fatalf("claim %s: indexed audit %v, logs.Le %v", c, got, want)
		}
		if want {
			justified++
		}
	}
	return justified
}

// TestAuditIndexedMatchesLe: on seeded relay logs, the indexed audit
// agrees with logs.Le on every claim, before and after the store is
// reopened (the recovered indexes are rebuilt from disk).
func TestAuditIndexedMatchesLe(t *testing.T) {
	for _, seed := range testutil.Seeds(t, 20261017, 6) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := testutil.Rand(seed)
			w := genRelayWorld(rng, 6)
			dir := t.TempDir()
			s, err := store.Open(dir, store.Options{SegmentBytes: 4096})
			if err != nil {
				t.Fatal(err)
			}
			// An empty store justifies only ε claims.
			checkAudits(t, s, w.claims[:4], false)
			appendInBatches(t, s, rng, w.acts)
			ok := checkAudits(t, s, w.claims, true)
			if ok == 0 || ok == len(w.claims) {
				t.Fatalf("%d of %d claims justified: the suite needs both verdicts", ok, len(w.claims))
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if s, err = store.Open(dir, store.Options{SegmentBytes: 4096}); err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if again := checkAudits(t, s, w.claims, true); again != ok {
				t.Fatalf("after reopen %d claims justified, before %d", again, ok)
			}
		})
	}
}

// TestAuditIndexedNewestRecord: the snapshot's ceiling admits the record
// appended just before the audit, for single appends and batches alike.
func TestAuditIndexedNewestRecord(t *testing.T) {
	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	late := logs.NameT("late")
	sent := claim{late, syntax.Seq(syntax.OutEvent("a", nil)), true}
	relayed := claim{late, syntax.Seq(syntax.InEvent("b", nil), syntax.OutEvent("a", nil)), true}
	if _, err := s.Append(logs.SndAct("a", logs.NameT("m"), late)); err != nil {
		t.Fatal(err)
	}
	checkAudits(t, s, []claim{sent}, true)
	if _, err := s.AppendBatch([]logs.Action{logs.IftAct("c", late, late), logs.RcvAct("b", logs.NameT("m"), late)}); err != nil {
		t.Fatal(err)
	}
	checkAudits(t, s, []claim{sent, relayed}, true)
}

// TestAuditIndexedConcurrentAppend audits while other goroutines append
// batches (run it under -race). An audit cannot be compared with Le at
// its own snapshot from outside, but appends only extend the spine and
// ≼ is monotone in it (Log-Pre2), so every verdict must lie between Le
// on the log before the appends began and Le on the log after they
// ended.
func TestAuditIndexedConcurrentAppend(t *testing.T) {
	seed := testutil.Seed(t, 7)
	rng := testutil.Rand(seed)
	w := genRelayWorld(rng, 6)
	s, err := store.Open(t.TempDir(), store.Options{Stripes: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	half := len(w.acts) / 2
	appendInBatches(t, s, rng, w.acts[:half])
	before := make([]bool, len(w.claims))
	for i, c := range w.claims {
		before[i] = oracle(s, c)
	}
	// Two writers split the rest of the log by position; each keeps its
	// own share in order. Audit passes repeat until both are done.
	rest := w.acts[half:]
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var mine []logs.Action
			for i := g; i < len(rest); i += 2 {
				mine = append(mine, rest[i])
			}
			for len(mine) > 0 {
				n := min(1+len(mine)%7, len(mine))
				if _, err := s.AppendBatch(mine[:n]); err != nil {
					t.Error(err)
					return
				}
				mine = mine[n:]
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	everJustified := make([]bool, len(w.claims))
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true
		default:
		}
		for i, c := range w.claims {
			got := s.AuditTerm(c.term, c.prov) == nil
			if before[i] && !got {
				t.Fatalf("claim %s: rejected during appends, justified before them", c)
			}
			everJustified[i] = everJustified[i] || got
		}
	}
	for i, c := range w.claims {
		after := oracle(s, c)
		if everJustified[i] && !after {
			t.Fatalf("claim %s: justified during appends, logs.Le rejects it after them", c)
		}
		if got := s.AuditTerm(c.term, c.prov) == nil; got != after {
			t.Fatalf("claim %s: indexed audit %v on the quiescent store, logs.Le %v", c, got, after)
		}
	}
}

// FuzzAuditIndexedVsLe drives the same differential with logs and claims
// decoded from the fuzzer's bytes: a small log over three principals,
// four kinds and a handful of terms (variables and ? included), then
// claims built from the remaining bytes.
func FuzzAuditIndexedVsLe(f *testing.F) {
	f.Add([]byte{4, 0, 0, 1, 2, 1, 1, 1, 2, 0, 0, 0, 2, 1, 0, 1, 1, 0, 3})
	f.Add([]byte{6, 0, 0, 0, 5, 1, 1, 0, 5, 1, 0, 1, 5, 2, 1, 1, 5, 2, 2, 6, 5, 0, 3, 4, 4, 2, 1, 1, 0, 0, 1})
	f.Add([]byte{3, 2, 2, 3, 3, 0, 1, 6, 6, 1, 3, 5, 5, 6, 2, 2, 2, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		b := byteSource(data)
		s, err := store.Open(t.TempDir(), store.Options{Stripes: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for n := b.next(24); n > 0; n-- {
			a := logs.Action{Principal: fuzzPrincipals[b.next(3)], Kind: logs.ActKind(b.next(4)), A: b.term(), B: b.term()}
			if _, err := s.Append(a); err != nil {
				t.Fatal(err)
			}
		}
		for len(b) > 0 {
			c := claim{term: b.term(), prov: b.prov(3, 1)}
			want := oracle(s, c)
			if got := s.AuditTerm(c.term, c.prov) == nil; got != want {
				t.Fatalf("claim %s: indexed audit %v, logs.Le %v\nlog: %s", c, got, want, s.GlobalLog())
			}
		}
	})
}

// fuzzPrincipals are the fuzzed principals; the last never acts.
var fuzzPrincipals = []string{"a", "b", "c", absentPrincipal}

// byteSource reads small numbers off fuzz input, yielding 0 once spent.
type byteSource []byte

func (b *byteSource) next(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

func (b *byteSource) term() logs.Term {
	switch i := b.next(7); i {
	case 5:
		return logs.UnknownT()
	case 6:
		return logs.VarT("ch0")
	default:
		return logs.NameT(fmt.Sprintf("n%d", i))
	}
}

func (b *byteSource) prov(n, depth int) syntax.Prov {
	var k syntax.Prov
	for i := b.next(n + 1); i > 0; i-- {
		e := syntax.Event{Principal: fuzzPrincipals[b.next(len(fuzzPrincipals))], Dir: syntax.Dir(b.next(2))}
		if depth > 0 {
			e.ChanProv = b.prov(2, depth-1)
		}
		k = append(k, e)
	}
	return k
}
