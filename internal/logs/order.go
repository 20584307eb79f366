package logs

import "fmt"

// Le decides the information order φ ≼ ψ of §3.1 ("ψ tells us at least as
// much about the past as φ"), defined as the smallest relation on closed
// logs satisfying
//
//	Log-Nil    ∅ ≼ φ
//	Log-Pre1   α ≾ α'  ∧  φσ ≼ ψσ'   ⟹  α;φ ≼ α';ψ
//	Log-Pre2   φ ≼ ψ                  ⟹  φ ≼ α;ψ
//	Log-Comp1  φ ≼ ψ  ∧  φ' ≼ ψ       ⟹  φ|φ' ≼ ψ
//	Log-Comp2  φ ≼ ψ                  ⟹  φ ≼ ψ|ψ'   (and symmetrically)
//
// where α ≾ α' means α' = ασ for some substitution σ of values for
// variables, and σ, σ' are closing substitutions for the continuations.
//
// The decision procedure is a structural search: left compositions split
// (Log-Comp1 takes a nonlinear interpretation, so both components may
// reference the same right-log actions), left prefixes either match a
// right prefix (Log-Pre1, with the substitutions computed by one-way
// unification rather than guessed) or skip into the right log (Log-Pre2,
// Log-Comp2). Every recursive call consumes left or right structure, so
// the search terminates.
//
// Cost. The search is O(|ψ|) per left prefix, times the backtracking a
// failed match forces. Log-Pre2 skips are a loop, not recursion, so stack
// depth is bounded by the size of φ and the Comp nesting of ψ, never by
// the length of a spine: a monitored run's log can be arbitrarily long.
func Le(phi, psi Log) bool {
	return le(phi, psi)
}

func le(phi, psi Log) bool {
	switch l := phi.(type) {
	case Empty:
		return true // Log-Nil
	case *Comp:
		// Log-Comp1: both components must be justified by ψ (nonlinear:
		// they may share right-log actions).
		return le(l.L, psi) && le(l.R, psi)
	case *Pre:
		return lePre(l, psi)
	default:
		panic(fmt.Sprintf("logs: Le: unknown log %T", phi))
	}
}

// lePre handles a left prefix α;φ against an arbitrary right log.
func lePre(l *Pre, psi Log) bool {
	for {
		switch r := psi.(type) {
		case Empty:
			return false // no rule concludes α;φ ≼ ∅
		case *Comp:
			// Log-Comp2 (both orientations).
			if lePre(l, r.L) {
				return true
			}
			psi = r.R
		case *Pre:
			// Log-Pre1: match the two actions. σ' is empty (see
			// MatchAction), so ψ's continuation is used as is.
			if sigma, ok := MatchAction(l.Act, r.Act); ok && le(ApplySubst(l.Rest, sigma), r.Rest) {
				return true
			}
			// Log-Pre2: skip the right action.
			psi = r.Rest
		default:
			panic(fmt.Sprintf("logs: lePre: unknown log %T", psi))
		}
	}
}

// MatchAction implements α ≾ α' of Log-Pre1: it returns σ, the bindings
// for the left action's variables witnessing α' = α σ. The instantiation
// is strictly one-way — a substitution replaces variables with values — so
// right-side variables are rigid: a right variable matches only the
// identical left variable (up to the shared name; the paper identifies
// logs up to alpha-conversion, and our denotation uses a deterministic
// fresh-variable discipline so matching by name is sound). The right
// action's substitution σ' is therefore always empty.
func MatchAction(al, ar Action) (Subst, bool) {
	if al.Principal != ar.Principal || al.Kind != ar.Kind {
		return nil, false
	}
	// Ground positions first: they reject most candidates without
	// allocating σ.
	if (al.A.Kind != TVar && al.A != ar.A) || (al.B.Kind != TVar && al.B != ar.B) {
		return nil, false
	}
	sigma := Subst{}
	if !instantiate(al.A, ar.A, sigma) || !instantiate(al.B, ar.B, sigma) {
		return nil, false
	}
	return sigma, true
}

// instantiate checks that tr is tl under some extension of σL (left
// variables map to right values, ? or — for alpha-matching — the identical
// right variable).
func instantiate(tl, tr Term, sigmaL Subst) bool {
	if tl.Kind == TVar {
		if b, ok := sigmaL[tl.Name]; ok {
			// Consistency: a left variable bound earlier in this action
			// must map to the same thing.
			return b == tr
		}
		if tr.Kind == TVar {
			// α' = ασ with σ mapping variables to values only: a right
			// variable can only be the left variable left untouched.
			return tl.Name == tr.Name
		}
		sigmaL[tl.Name] = tr
		return true
	}
	return tl == tr
}

// Incomparable reports that neither φ ≼ ψ nor ψ ≼ φ.
func Incomparable(phi, psi Log) bool {
	return !Le(phi, psi) && !Le(psi, phi)
}

// EquivLe reports φ ≼ ψ and ψ ≼ φ: the two logs convey the same
// information.
func EquivLe(phi, psi Log) bool {
	return Le(phi, psi) && Le(psi, phi)
}
