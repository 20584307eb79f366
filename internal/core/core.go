// Package core is the high-level API of the provenance-calculus library:
// it ties together the surface language (parser), the provenance-tracking
// reduction semantics (semantics), the monitored semantics with its global
// log (monitor), the denotational correctness checker (denote, logs), the
// trust layer (trust) and the static provenance-flow analysis (flow).
//
// Typical use:
//
//	prog, err := core.Load(`a[m!(v)] || b[m?(any as x).0]`)
//	rep := prog.Run(core.Options{Seed: 1, MaxSteps: 100})
//	fmt.Println(rep.Final, rep.Log)
//
// Run executes the monitored semantics, so every report carries the global
// log and a Definition-3 correctness verdict for the final state.
package core

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/denote"
	"repro/internal/flow"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/parser"
	"repro/internal/semantics"
	"repro/internal/syntax"
	"repro/internal/trust"
)

// Program is a loaded, closed system of the provenance calculus.
type Program struct {
	// Sys is the underlying system term.
	Sys syntax.System
}

// Load parses a program in the surface syntax.
func Load(src string) (*Program, error) {
	s, err := parser.ParseSystem(src)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Program{Sys: s}, nil
}

// MustLoad is Load for programs known to be well-formed; it panics on
// error (intended for tests and examples).
func MustLoad(src string) *Program {
	p, err := Load(src)
	if err != nil {
		panic(err)
	}
	return p
}

// FromSystem wraps an already-built system term.
func FromSystem(s syntax.System) *Program { return &Program{Sys: s} }

// Options configures a run.
type Options struct {
	// Seed drives the resolution of the calculus's nondeterminism;
	// identical seeds give identical runs.
	Seed int64
	// MaxSteps bounds the run length (default 1000).
	MaxSteps int
	// Deterministic, when set, always takes the first available reduction
	// instead of sampling with Seed.
	Deterministic bool
}

func (o Options) maxSteps() int {
	if o.MaxSteps <= 0 {
		return 1000
	}
	return o.MaxSteps
}

// Report is the outcome of a monitored run.
type Report struct {
	// Steps holds the labels of the reductions performed, in order.
	Steps []semantics.Label
	// Final is the final state in normal form.
	Final *semantics.Norm
	// Log is the final global log (most recent action first).
	Log logs.Log
	// Quiescent reports whether the run stopped because no reduction was
	// available (rather than hitting MaxSteps).
	Quiescent bool
	// Correct is the Definition-3 verdict for the final state; Witness
	// explains a failure.
	Correct bool
	// Witness is a value with unjustified provenance when Correct is false.
	Witness string
}

// Run executes the program under the monitored semantics.
func (p *Program) Run(opts Options) *Report {
	m := monitor.New(p.Sys)
	rep := &Report{}
	rng := rand.New(rand.NewSource(opts.Seed))
	for len(rep.Steps) < opts.maxSteps() {
		steps := monitor.Steps(m)
		if len(steps) == 0 {
			rep.Quiescent = true
			break
		}
		var st monitor.MStep
		if opts.Deterministic {
			st = steps[0]
		} else {
			st = steps[rng.Intn(len(steps))]
		}
		rep.Steps = append(rep.Steps, st.Label)
		m = st.Next
	}
	rep.Final = m.Sys
	rep.Log = m.Log
	if w, bad := monitor.FirstIncorrectValue(m); bad {
		rep.Witness = w.String()
	} else {
		rep.Correct = true
	}
	return rep
}

// RunTrace executes the monitored semantics and returns every intermediate
// monitored state (state 0 is the initial one).
func (p *Program) RunTrace(opts Options) []*monitor.Monitored {
	m := monitor.New(p.Sys)
	trace := []*monitor.Monitored{m}
	rng := rand.New(rand.NewSource(opts.Seed))
	for len(trace)-1 < opts.maxSteps() {
		steps := monitor.Steps(m)
		if len(steps) == 0 {
			break
		}
		if opts.Deterministic {
			m = steps[0].Next
		} else {
			m = steps[rng.Intn(len(steps))].Next
		}
		trace = append(trace, m)
	}
	return trace
}

// Explore computes the reachable state space (up to structural congruence)
// within the given limits.
func (p *Program) Explore(maxStates, maxDepth int) *semantics.ExploreResult {
	return semantics.Explore(p.Sys, maxStates, maxDepth)
}

// Analyze runs the static provenance-flow analysis at the given depth
// (0 = default).
func (p *Program) Analyze(depth int) *flow.Result {
	return flow.Analyze(p.Sys, depth)
}

// CheckTheorem1 runs the program for maxSteps under seed and verifies the
// correctness invariant (Definition 3) at every intermediate state,
// returning an error describing the first violation.
func (p *Program) CheckTheorem1(seed int64, maxSteps int) error {
	if i, v, ok := monitor.CheckCorrectnessPreservation(p.Sys, seed, maxSteps); !ok {
		return fmt.Errorf("core: correctness violated at state %d by %s", i, v)
	}
	return nil
}

// Messages returns the messages in transit in a normal form, keyed by
// channel.
func Messages(n *semantics.Norm) map[string][]syntax.AnnotatedValue {
	out := make(map[string][]syntax.AnnotatedValue)
	for _, m := range n.Messages {
		out[m.Chan] = append(out[m.Chan], m.Payload...)
	}
	return out
}

// ProvenanceOf returns the provenance of the first in-transit payload with
// the given plain-value name, searching messages in order.
func ProvenanceOf(n *semantics.Norm, valueName string) (syntax.Prov, bool) {
	for _, m := range n.Messages {
		for _, v := range m.Payload {
			if v.V.Name == valueName {
				return v.K, true
			}
		}
	}
	return nil, false
}

// Denote exposes the Definition-2 denotation for report tooling.
func Denote(v syntax.AnnotatedValue) logs.Log { return denote.Denote(v) }

// Audit renders a human-readable audit report for an annotated value
// against a trust policy: the handling chain, the trust score and the
// blame list, as in the paper's auditing example.
func Audit(v syntax.AnnotatedValue, pol *trust.Policy) string {
	if pol == nil {
		pol = trust.NewPolicy()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "value   %s\n", v)
	fmt.Fprintf(&b, "chain   %s\n", strings.Join(trust.Chain(v.K), " <- "))
	fmt.Fprintf(&b, "score   %.3f\n", pol.ScoreValue(v))
	if blame := pol.Blame(v.K); len(blame) > 0 {
		fmt.Fprintf(&b, "blame   %s\n", strings.Join(blame, ", "))
	}
	return b.String()
}
