// Package logs implements the logs of §3.1 of the paper: edge-labelled
// trees recording the past behaviour of systems,
//
//	φ ::= ∅ | α;φ | φ|ψ
//	α ::= a.snd(V,V') | a.rcv(V,V') | a.ift(V,V') | a.iff(V,V')
//
// where V ranges over Dx = V ∪ X ∪ {?}: plain values, variables standing
// for unknown values, and the special symbol ? denoting an unknown private
// channel name. In a.snd(x,V);φ and a.rcv(x,V);φ the channel-position
// variable x binds its occurrences in φ; all other variable occurrences are
// free.
//
// The package also provides the information order φ ≼ ψ ("ψ tells us at
// least as much about the past as φ"), defined by the inference rules
// Log-Nil, Log-Pre1, Log-Pre2, Log-Comp1 and Log-Comp2. Le decides it in
// O(|ψ|) per left prefix, before backtracking. It serves tree-shaped
// logs (the runtime's and the monitor's) and is the reference for the
// durable store's audit, which decides the same order on its global
// spine through per-principal indexes instead (internal/store).
package logs

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind classifies elements of Dx.
type TermKind int

const (
	// TName is a plain value (channel or principal name).
	TName TermKind = iota
	// TVar is a variable standing for an unknown value.
	TVar
	// TUnknown is the special symbol ? for an unknown private channel.
	TUnknown
)

// Term is an element of Dx = V ∪ X ∪ {?}.
type Term struct {
	Kind TermKind
	Name string // the name or variable; empty for ?
}

// NameT returns the plain-value term for a name.
func NameT(name string) Term { return Term{Kind: TName, Name: name} }

// VarT returns the variable term x.
func VarT(name string) Term { return Term{Kind: TVar, Name: name} }

// UnknownT returns the ? term.
func UnknownT() Term { return Term{Kind: TUnknown} }

// IsVar reports whether the term is a variable.
func (t Term) IsVar() bool { return t.Kind == TVar }

func (t Term) String() string {
	switch t.Kind {
	case TName:
		return t.Name
	case TVar:
		return "$" + t.Name
	case TUnknown:
		return "?"
	default:
		return fmt.Sprintf("Term(%d,%s)", int(t.Kind), t.Name)
	}
}

// ActKind classifies log actions.
type ActKind int

const (
	// Snd is the output action a.snd(V,V'): a sent V' on V.
	Snd ActKind = iota
	// Rcv is the input action a.rcv(V,V'): a received V' on V.
	Rcv
	// IfT is a.ift(V,V'): a compared V and V' with result true.
	IfT
	// IfF is a.iff(V,V'): a compared V and V' with result false.
	IfF
)

func (k ActKind) String() string {
	switch k {
	case Snd:
		return "snd"
	case Rcv:
		return "rcv"
	case IfT:
		return "ift"
	case IfF:
		return "iff"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// Action is a log action α. For Snd/Rcv, A is the channel and B the value;
// for IfT/IfF, A and B are the two compared values.
type Action struct {
	Principal string
	Kind      ActKind
	A, B      Term
}

// SndAct builds a.snd(ch, val).
func SndAct(principal string, ch, val Term) Action {
	return Action{Principal: principal, Kind: Snd, A: ch, B: val}
}

// RcvAct builds a.rcv(ch, val).
func RcvAct(principal string, ch, val Term) Action {
	return Action{Principal: principal, Kind: Rcv, A: ch, B: val}
}

// IftAct builds a.ift(l, r).
func IftAct(principal string, l, r Term) Action {
	return Action{Principal: principal, Kind: IfT, A: l, B: r}
}

// IffAct builds a.iff(l, r).
func IffAct(principal string, l, r Term) Action {
	return Action{Principal: principal, Kind: IfF, A: l, B: r}
}

func (a Action) String() string {
	return a.Principal + "." + a.Kind.String() + "(" + a.A.String() + ", " + a.B.String() + ")"
}

// Binder returns the variable bound by this action and true, if any: in
// a.snd(x,V);φ and a.rcv(x,V);φ the channel-position variable binds in φ.
func (a Action) Binder() (string, bool) {
	if (a.Kind == Snd || a.Kind == Rcv) && a.A.Kind == TVar {
		return a.A.Name, true
	}
	return "", false
}

// Log is a log tree φ.
type Log interface {
	isLog()
	String() string
}

// Empty is the empty log ∅.
type Empty struct{}

func (Empty) isLog() {}

func (Empty) String() string { return "0" }

// Pre is the log α;φ: edge labelled α leading to subtree φ. The edge's
// action occurred more recently than every action in φ.
type Pre struct {
	Act  Action
	Rest Log
}

func (*Pre) isLog() {}

func (l *Pre) String() string {
	if _, ok := l.Rest.(Empty); ok {
		return l.Act.String()
	}
	rest := l.Rest.String()
	if _, ok := l.Rest.(*Comp); ok {
		rest = "(" + rest + ")"
	}
	return l.Act.String() + "; " + rest
}

// Comp is the composition φ|ψ: two sibling subtrees joined at the root,
// temporally independent of each other.
type Comp struct {
	L, R Log
}

func (*Comp) isLog() {}

func (l *Comp) String() string { return l.L.String() + " | " + l.R.String() }

// Nil returns the empty log ∅.
func Nil() Log { return Empty{} }

// Prefix returns α;φ.
func Prefix(a Action, rest Log) Log { return &Pre{Act: a, Rest: rest} }

// Compose folds logs with |, dropping ∅ units. Compose() is ∅.
// The result nests to the right: Compose(a, b, c) is a|(b|c).
func Compose(ls ...Log) Log {
	var out Log = Empty{}
	for i := len(ls) - 1; i >= 0; i-- {
		switch {
		case isEmpty(ls[i]):
		case isEmpty(out):
			out = ls[i]
		default:
			out = &Comp{L: ls[i], R: out}
		}
	}
	return out
}

func isEmpty(l Log) bool {
	_, ok := l.(Empty)
	return ok
}

// Subst is a substitution of terms (values or ?) for log variables.
type Subst map[string]Term

// ApplySubst applies σ to the free variables of φ, respecting the binding
// structure: an action binding x shadows σ's entry for x in its subtree.
func ApplySubst(l Log, sigma Subst) Log {
	if len(sigma) == 0 {
		return l
	}
	switch l := l.(type) {
	case Empty:
		return l
	case *Pre:
		act := l.Act
		binder, hasBinder := l.Act.Binder()
		// The channel-position variable of snd/rcv is a binding occurrence:
		// it is never substituted, and it shadows σ in the subtree.
		if !hasBinder {
			act.A = substTerm(act.A, sigma)
		}
		act.B = substTerm(act.B, sigma)
		inner := sigma
		if hasBinder {
			if _, shadowed := sigma[binder]; shadowed {
				inner = make(Subst, len(sigma))
				for k, v := range sigma {
					inner[k] = v
				}
				delete(inner, binder)
			}
		}
		return &Pre{Act: act, Rest: ApplySubst(l.Rest, inner)}
	case *Comp:
		return &Comp{L: ApplySubst(l.L, sigma), R: ApplySubst(l.R, sigma)}
	default:
		panic(fmt.Sprintf("logs: ApplySubst: unknown log %T", l))
	}
}

func substTerm(t Term, sigma Subst) Term {
	if t.Kind == TVar {
		if r, ok := sigma[t.Name]; ok {
			return r
		}
	}
	return t
}

// FreeVars returns the free variables of φ.
func FreeVars(l Log) map[string]bool {
	out := make(map[string]bool)
	addFreeVars(l, make(map[string]bool), out)
	return out
}

func addFreeVars(l Log, bound, out map[string]bool) {
	switch l := l.(type) {
	case Empty:
	case *Pre:
		binder, hasBinder := l.Act.Binder()
		// The channel-position variable of snd/rcv is a binding occurrence,
		// not a free one; every other variable position is free.
		if !hasBinder && l.Act.A.Kind == TVar && !bound[l.Act.A.Name] {
			out[l.Act.A.Name] = true
		}
		if l.Act.B.Kind == TVar && !bound[l.Act.B.Name] {
			out[l.Act.B.Name] = true
		}
		inner := bound
		if hasBinder {
			inner = make(map[string]bool, len(bound)+1)
			for k := range bound {
				inner[k] = true
			}
			inner[binder] = true
		}
		addFreeVars(l.Rest, inner, out)
	case *Comp:
		addFreeVars(l.L, bound, out)
		addFreeVars(l.R, bound, out)
	default:
		panic(fmt.Sprintf("logs: addFreeVars: unknown log %T", l))
	}
}

// IsClosed reports whether φ has no free variables. The order ≼ is defined
// on closed logs.
func IsClosed(l Log) bool { return len(FreeVars(l)) == 0 }

// Actions returns every action in the log in preorder.
func Actions(l Log) []Action {
	var out []Action
	var walk func(Log)
	walk = func(l Log) {
		switch l := l.(type) {
		case Empty:
		case *Pre:
			out = append(out, l.Act)
			walk(l.Rest)
		case *Comp:
			walk(l.L)
			walk(l.R)
		}
	}
	walk(l)
	return out
}

// Size returns the number of actions in the log.
func Size(l Log) int { return len(Actions(l)) }

// Canon renders the log canonically modulo the commutative-monoid laws for
// | (associativity, commutativity, identity ∅): composition operands are
// flattened and sorted. Alpha-conversion is NOT normalised; callers
// generating logs should use a deterministic fresh-variable discipline.
func Canon(l Log) string {
	switch l := l.(type) {
	case Empty:
		return "0"
	case *Pre:
		return l.Act.String() + "; " + Canon(l.Rest)
	case *Comp:
		parts := compParts(l)
		strs := make([]string, len(parts))
		for i, p := range parts {
			strs[i] = Canon(p)
		}
		sort.Strings(strs)
		return "(" + strings.Join(strs, " | ") + ")"
	default:
		panic(fmt.Sprintf("logs: Canon: unknown log %T", l))
	}
}

func compParts(l Log) []Log {
	switch l := l.(type) {
	case Empty:
		return nil
	case *Comp:
		return append(compParts(l.L), compParts(l.R)...)
	default:
		return []Log{l}
	}
}

// Equal reports log equality modulo the commutative-monoid laws for |.
func Equal(a, b Log) bool { return Canon(a) == Canon(b) }
