// Package monitor implements monitored systems (§3.3 of the paper):
// systems paired with a global log that records every action, used as the
// proof tool against which provenance correctness (Definition 3, Theorem 1)
// and completeness (Definition 4, Proposition 3) are judged.
//
// A monitored system is φ ▷ S. The monitored reduction →m (Table 4)
// preserves the underlying provenance-tracking semantics (Proposition 2:
// M →m M' iff |M| → |M'| for the log-erasure |−|) and additionally prepends
// the action performed to the global log.
//
// Restrictions are handled as in the semantics package: active restrictions
// are lifted (with fresh renaming) to the top level of the monitored
// system, where — in the paper's terms — they are "known to the global
// log". Restrictions remaining inside process bodies (under prefixes) are
// unknown to the log, and values(−) substitutes the unknown-channel symbol
// ? for their names (Definition 3's discussion).
package monitor

import (
	"math/rand"

	"repro/internal/denote"
	"repro/internal/logs"
	"repro/internal/semantics"
	"repro/internal/syntax"
)

// Monitored is a monitored system φ ▷ S with S in normal form.
type Monitored struct {
	// Log is the global log φ; the most recent action is at the head.
	Log logs.Log
	// Sys is the system part, in structural-congruence normal form.
	Sys *semantics.Norm
}

// New monitors a closed system with an initially empty log: ∅ ▷ S.
func New(s syntax.System) *Monitored {
	return &Monitored{Log: logs.Nil(), Sys: semantics.Normalize(s)}
}

// Erase is the log-erasure function |−|: it discards the global log and
// returns the system part.
func (m *Monitored) Erase() *semantics.Norm { return m.Sys }

func (m *Monitored) String() string {
	return m.Log.String() + " |> " + m.Sys.String()
}

// MStep is one monitored reduction M →m M' together with the plain-label
// view of the action.
type MStep struct {
	Label semantics.Label
	Next  *Monitored
}

// actionsOf converts a reduction label to the log actions it contributes.
// The paper's actions are monadic; our polyadic extension logs one action
// per payload component (in payload order, most recent first), so that each
// component's stamped provenance event has a matching logged action.
// ift/iff actions log the two compared values.
func actionsOf(l semantics.Label) []logs.Action {
	switch l.Kind {
	case semantics.ActSend:
		out := make([]logs.Action, len(l.Vals))
		for i, v := range l.Vals {
			out[i] = logs.SndAct(l.Principal, logs.NameT(l.Chan), logs.NameT(v))
		}
		return out
	case semantics.ActRecv:
		out := make([]logs.Action, len(l.Vals))
		for i, v := range l.Vals {
			out[i] = logs.RcvAct(l.Principal, logs.NameT(l.Chan), logs.NameT(v))
		}
		return out
	case semantics.ActIfT:
		return []logs.Action{logs.IftAct(l.Principal, logs.NameT(l.Vals[0]), logs.NameT(l.Vals[1]))}
	case semantics.ActIfF:
		return []logs.Action{logs.IffAct(l.Principal, logs.NameT(l.Vals[0]), logs.NameT(l.Vals[1]))}
	default:
		panic("monitor: actionsOf: unknown label kind")
	}
}

// extendLog prepends the actions of one reduction to the global log, most
// recent first: for a polyadic send of (v₁,…,vₙ) the action for v₁ ends up
// at the head.
func extendLog(phi logs.Log, acts []logs.Action) logs.Log {
	for i := len(acts) - 1; i >= 0; i-- {
		phi = logs.Prefix(acts[i], phi)
	}
	return phi
}

// Steps enumerates the monitored reductions of M (rules MR-Send, MR-Recv,
// MR-IfT, MR-IfF; MR-Res, MR-Par and MR-Struct are absorbed by the normal
// form). By construction every monitored step projects to a plain step of
// the erasure and vice versa, which is Proposition 2.
func Steps(m *Monitored) []MStep {
	plain := semantics.Steps(m.Sys)
	out := make([]MStep, len(plain))
	for i, st := range plain {
		out[i] = MStep{
			Label: st.Label,
			Next:  &Monitored{Log: extendLog(m.Log, actionsOf(st.Label)), Sys: st.Next},
		}
	}
	return out
}

// Value is an element of values(M): a plain value (or ? for a channel
// restricted inside the system, unknown to the log) with its provenance.
type Value struct {
	V logs.Term
	K syntax.Prov
}

func (v Value) String() string { return v.V.String() + ":(" + v.K.String() + ")" }

// Values computes values(M): the set of annotated values of the system
// part (the global log and top-level restrictions are ignored). Annotated
// values under a process-level restriction (νn) have occurrences of n
// replaced by ?, following the paper's definition values((νn)S) =
// values(S){?/n}: such names are unknown to the global log.
func Values(m *Monitored) []Value {
	return NormValues(m.Sys)
}

// NormValues computes the annotated values of a system in normal form.
func NormValues(n *semantics.Norm) []Value {
	var out []Value
	// Top-level restricted names are known to the log: no ?-substitution.
	for _, msg := range n.Messages {
		for _, v := range msg.Payload {
			out = append(out, Value{V: logs.NameT(v.V.Name), K: v.K})
		}
	}
	for _, th := range n.Threads {
		collectProc(th.Proc, map[string]bool{}, &out)
	}
	return out
}

// collectIdent adds the annotated value of an identifier (if it is not a
// variable), substituting ? for names restricted in the enclosing process.
func collectIdent(w syntax.Ident, hidden map[string]bool, out *[]Value) {
	if w.IsVar {
		return
	}
	term := logs.NameT(w.Val.V.Name)
	if hidden[w.Val.V.Name] {
		term = logs.UnknownT()
	}
	// Provenance sequences mention principals only, and principals cannot
	// be restricted, so the provenance needs no ?-substitution.
	*out = append(*out, Value{V: term, K: w.Val.K})
}

func collectProc(p syntax.Process, hidden map[string]bool, out *[]Value) {
	switch p := p.(type) {
	case *syntax.Output:
		collectIdent(p.Chan, hidden, out)
		for _, a := range p.Args {
			collectIdent(a, hidden, out)
		}
	case *syntax.InputSum:
		if p.IsStop() {
			return
		}
		collectIdent(p.Chan, hidden, out)
		for _, b := range p.Branches {
			collectProc(b.Body, hidden, out)
		}
	case *syntax.If:
		collectIdent(p.L, hidden, out)
		collectIdent(p.R, hidden, out)
		collectProc(p.Then, hidden, out)
		collectProc(p.Else, hidden, out)
	case *syntax.Restrict:
		inner := make(map[string]bool, len(hidden)+1)
		for k := range hidden {
			inner[k] = true
		}
		inner[p.Name] = true
		collectProc(p.Body, inner, out)
	case *syntax.Par:
		collectProc(p.L, hidden, out)
		collectProc(p.R, hidden, out)
	case *syntax.Repl:
		collectProc(p.Body, hidden, out)
	}
}

// HasCorrectProvenance implements Definition 3: M has correct provenance
// iff ⟦V:κ⟧ ≼ log(M) for every V:κ in values(M).
func HasCorrectProvenance(m *Monitored) bool {
	_, ok := FirstIncorrectValue(m)
	return !ok
}

// FirstIncorrectValue returns a witness value whose provenance is not
// justified by the global log, if any.
func FirstIncorrectValue(m *Monitored) (Value, bool) {
	for _, v := range Values(m) {
		if !logs.Le(denote.DenoteTerm(v.V, v.K), m.Log) {
			return v, true
		}
	}
	return Value{}, false
}

// HasCompleteProvenance implements Definition 4: M has complete provenance
// iff log(M) ≼ ⟦V:κ⟧ for every V:κ in values(M). The paper shows this
// property is NOT preserved by reduction (Proposition 3).
func HasCompleteProvenance(m *Monitored) bool {
	for _, v := range Values(m) {
		if !logs.Le(m.Log, denote.DenoteTerm(v.V, v.K)) {
			return false
		}
	}
	return true
}

// Run performs up to maxSteps monitored reductions, resolving nondeterminism
// with the seeded PRNG, and returns the visited monitored systems.
func Run(s syntax.System, seed int64, maxSteps int) []*Monitored {
	cur := New(s)
	trace := []*Monitored{cur}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < maxSteps; i++ {
		steps := Steps(cur)
		if len(steps) == 0 {
			break
		}
		cur = steps[rng.Intn(len(steps))].Next
		trace = append(trace, cur)
	}
	return trace
}

// CheckCorrectnessPreservation runs a monitored system for maxSteps and
// verifies the Theorem 1 invariant (correct provenance) at every state.
// It returns the index of the first violating state, the witness value,
// and false if a violation was found; (0, Value{}, true) otherwise.
func CheckCorrectnessPreservation(s syntax.System, seed int64, maxSteps int) (int, Value, bool) {
	trace := Run(s, seed, maxSteps)
	for i, m := range trace {
		if v, bad := FirstIncorrectValue(m); bad {
			return i, v, false
		}
	}
	return 0, Value{}, true
}
