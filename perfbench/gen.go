package main

// Seeded input generators. Every generator is a pure function of its
// seed and parameters: one PCG stream per generator, no map iteration,
// no clock — so the same seed gives byte-identical inputs. The only
// exception is fleet-mixed's creation stamp, a fixed-width field the
// send path fills in (stampValue).

import (
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/logs"
	"repro/internal/provd"
	"repro/internal/syntax"
)

// newRand derives an independent stream per (seed, purpose).
func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// ---------------------------------------------------------------------
// ingest-durable: Zipf-skewed many-principal batches.

// zipfS and zipfV shape the principal skew: over 1024 principals they
// give about 39 distinct principals per 64-action batch.
const (
	zipfS = 1.1
	zipfV = 1
)

func durablePrincipal(i int) string { return fmt.Sprintf("p%04d", i) }

// durableBatches generates one producer's batches. Action j of batch b
// is principal.snd(cNN, wP-BBBBBBB-JJ): the value names the producer,
// batch and slot, so verification can place every record.
func durableBatches(seed uint64, producer, batches, size, principals int) [][]logs.Action {
	r := newRand(seed, uint64(100+producer))
	// Hot ranks map to a seeded permutation of the principals, so the
	// hot set is not the lexically first shards.
	perm := newRand(seed, 99).Perm(principals)
	z := rand.NewZipf(r, zipfS, zipfV, uint64(principals-1))
	out := make([][]logs.Action, batches)
	for b := range out {
		batch := make([]logs.Action, size)
		for j := range batch {
			p := durablePrincipal(perm[z.Uint64()])
			ch := fmt.Sprintf("c%02d", r.IntN(16))
			batch[j] = logs.SndAct(p, logs.NameT(ch), logs.NameT(fmt.Sprintf("w%d-%07d-%02d", producer, b, j)))
		}
		out[b] = batch
	}
	return out
}

// distinctPrincipals counts the principals one batch touches — the
// number of shards (and, with fsync, segment fsyncs) AppendBatch pays.
func distinctPrincipals(batch []logs.Action) int {
	seen := make(map[string]struct{}, len(batch))
	for _, a := range batch {
		seen[a.Principal] = struct{}{}
	}
	return len(seen)
}

// ---------------------------------------------------------------------
// audit-deep: relay traffic with chains at random depths, and claims.

// relayChain is one value relayed hop by hop: principals[0] sends it,
// principals[k] receives it and (except the last) sends it on.
type relayChain struct {
	Value      string
	Principals []string
	Oldest     int // index in the generated log of the chain's first action
}

// relayLog is the preload of audit-deep: the actions in log order and
// the chains placed in it.
type relayLog struct {
	Acts       []logs.Action
	Chains     []relayChain
	Principals []string
}

func relayPrincipal(i int) string { return fmt.Sprintf("r%03d", i) }

// genRelayLog builds a log of total actions over nPrincipals, holding
// nChains relay chains of minHops..maxHops hops each at uniformly random
// depths; the rest is unrelated single-action traffic. A chain's actions
// keep their relative order and sit a few records apart.
func genRelayLog(seed uint64, nPrincipals, nChains, minHops, maxHops, total int) relayLog {
	r := newRand(seed, 1)
	out := relayLog{Principals: make([]string, nPrincipals)}
	for i := range out.Principals {
		out.Principals[i] = relayPrincipal(i)
	}
	type slot struct {
		key   float64
		chain int // -1: filler
		act   logs.Action
	}
	var slots []slot
	out.Chains = make([]relayChain, nChains)
	for c := range out.Chains {
		hops := minHops + r.IntN(maxHops-minHops+1)
		ps := make([]string, hops+1)
		for i, pi := range r.Perm(nPrincipals)[:hops+1] {
			ps[i] = out.Principals[pi]
		}
		v := logs.NameT(fmt.Sprintf("v%05d", c))
		key := r.Float64() * float64(total)
		for h := 0; h < hops; h++ {
			ch := logs.NameT(fmt.Sprintf("k%05d-%d", c, h))
			slots = append(slots, slot{key, c, logs.SndAct(ps[h], ch, v)})
			key += 1 + r.Float64()*32
			slots = append(slots, slot{key, c, logs.RcvAct(ps[h+1], ch, v)})
			key += 1 + r.Float64()*32
		}
		out.Chains[c] = relayChain{Value: v.Name, Principals: ps}
	}
	for f := 0; len(slots) < total; f++ {
		p := out.Principals[r.IntN(nPrincipals)]
		ch, v := logs.NameT(fmt.Sprintf("n%02d", r.IntN(32))), logs.NameT(fmt.Sprintf("f%06d", f))
		a := logs.SndAct(p, ch, v)
		if r.IntN(2) == 1 {
			a = logs.RcvAct(p, ch, v)
		}
		slots = append(slots, slot{r.Float64() * float64(total), -1, a})
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].key < slots[j].key })
	out.Acts = make([]logs.Action, len(slots))
	seen := make([]bool, nChains)
	for i, s := range slots {
		out.Acts[i] = s.act
		if s.chain >= 0 && !seen[s.chain] {
			seen[s.chain] = true
			out.Chains[s.chain].Oldest = i
		}
	}
	return out
}

// Claim is one audit request with its verdict known in advance.
type Claim struct {
	Chain   int
	Value   string
	Prov    syntax.Prov // most recent event first
	Genuine bool
	Forgery string // "", "swap" or "flip"
}

// genuineProv is the provenance the chain's last receiver holds:
// κ = pₕ? ; pₕ₋₁! ; pₕ₋₁? ; … ; p₁? ; p₀!  (most recent first).
func genuineProv(c relayChain) syntax.Prov {
	var k syntax.Prov
	for h := len(c.Principals) - 1; h >= 1; h-- {
		k = append(k, syntax.Event{Principal: c.Principals[h], Dir: syntax.Recv})
		k = append(k, syntax.Event{Principal: c.Principals[h-1], Dir: syntax.Send})
	}
	return k
}

// claimStrata is how many depth bands genClaims cycles through.
const claimStrata = 16

// genClaims draws n claims, 80% genuine and 20% forged. Claims are
// stratified so every seed audits the same mix: claim i takes a random
// chain from depth band i mod claimStrata (bands are equal slices of the
// chains ordered by depth), and every fifth claim is a forgery,
// alternating the two kinds. A forgery either swaps one event's
// principal for one outside the chain (who never touched the value) or
// flips one event's direction (each chain principal receives and sends
// the value at most once, so a flipped event asks for an action the log
// does not hold). Either way the claim is unjustified by construction.
func genClaims(seed uint64, lg relayLog, n int) []Claim {
	r := newRand(seed, 2)
	byDepth := make([]int, len(lg.Chains))
	for i := range byDepth {
		byDepth[i] = i
	}
	sort.SliceStable(byDepth, func(a, b int) bool { return lg.Chains[byDepth[a]].Oldest < lg.Chains[byDepth[b]].Oldest })
	band := max(len(byDepth)/claimStrata, 1)
	out := make([]Claim, n)
	for i := range out {
		lo := (i % claimStrata) * band
		ci := byDepth[min(lo+r.IntN(band), len(byDepth)-1)]
		c := lg.Chains[ci]
		k := genuineProv(c)
		cl := Claim{Chain: ci, Value: c.Value, Prov: k, Genuine: true}
		if i%5 == 4 {
			cl.Genuine = false
			// The forgery alters one of the two most recent events, so a
			// forged audit costs one or two scans of the log. (A forgery
			// deeper in κ makes logs.Le backtrack once per matched event
			// above it; that cost varies with the chain drawn far more
			// than a steady benchmark allows.)
			e := r.IntN(min(2, len(k)))
			if (i/5)%2 == 0 {
				cl.Forgery = "swap"
				in := make(map[string]bool, len(c.Principals))
				for _, p := range c.Principals {
					in[p] = true
				}
				for {
					p := lg.Principals[r.IntN(len(lg.Principals))]
					if !in[p] {
						k[e].Principal = p
						break
					}
				}
			} else {
				cl.Forgery = "flip"
				if k[e].Dir == syntax.Send {
					k[e].Dir = syntax.Recv
				} else {
					k[e].Dir = syntax.Send
				}
			}
		}
		out[i] = cl
	}
	return out
}

// auditRequest is a claim in provd's /audit wire form.
func auditRequest(c Claim) provd.AuditRequest {
	req := provd.AuditRequest{Value: c.Value, Prov: make([]provd.EventDTO, len(c.Prov))}
	for i, e := range c.Prov {
		dir := "!"
		if e.Dir == syntax.Recv {
			dir = "?"
		}
		req.Prov[i] = provd.EventDTO{Principal: e.Principal, Dir: dir}
	}
	return req
}

// trickleBatch is audit-deep's background ingest: batch i of 16
// unrelated actions whose values never collide with a chain's.
func trickleBatch(r *rand.Rand, principals []string, i, size int) []logs.Action {
	out := make([]logs.Action, size)
	for j := range out {
		out[j] = logs.SndAct(principals[r.IntN(len(principals))],
			logs.NameT(fmt.Sprintf("n%02d", r.IntN(32))), logs.NameT(fmt.Sprintf("t%06d-%02d", i, j)))
	}
	return out
}

// ---------------------------------------------------------------------
// fleet-mixed: small routed batches with creation stamps.

func fleetPrincipal(i int) string { return fmt.Sprintf("t%04d", i) }

// fleetChannels is how many channels fleet traffic spreads over; the
// query stream filters on one of them per page.
const fleetChannels = 4

// fleetShape is the seeded part of one fleet batch: which principal
// and channel each slot uses.
type fleetShape struct {
	Principal []int
	Channel   []int
}

func fleetShapes(seed uint64, n, size, principals int) []fleetShape {
	r := newRand(seed, 3)
	out := make([]fleetShape, n)
	for i := range out {
		s := fleetShape{Principal: make([]int, size), Channel: make([]int, size)}
		for j := 0; j < size; j++ {
			s.Principal[j] = r.IntN(principals)
			s.Channel[j] = r.IntN(fleetChannels)
		}
		out[i] = s
	}
	return out
}

// stampWidth is the fixed width of a creation stamp: nanoseconds since
// the run started, zero-padded.
const stampWidth = 13

// stampValue names slot j of batch b created stamp ns into the run.
func stampValue(stamp int64, b, j int) string {
	return fmt.Sprintf("s%0*d-%06d-%02d", stampWidth, stamp, b, j)
}

// parseStamp recovers the creation stamp, batch and slot from a value
// name, reporting false for values that carry none.
func parseStamp(v string) (stamp int64, batch, slot int, ok bool) {
	// s<stamp>-<batch:6>-<slot:2>
	if len(v) != 1+stampWidth+1+6+1+2 || v[0] != 's' || v[1+stampWidth] != '-' || v[len(v)-3] != '-' {
		return 0, 0, 0, false
	}
	num := func(s string) (int64, bool) {
		var n int64
		for _, c := range s {
			if c < '0' || c > '9' {
				return 0, false
			}
			n = n*10 + int64(c-'0')
		}
		return n, true
	}
	st, ok1 := num(v[1 : 1+stampWidth])
	b, ok2 := num(v[2+stampWidth : len(v)-3])
	j, ok3 := num(v[len(v)-2:])
	if !ok1 || !ok2 || !ok3 {
		return 0, 0, 0, false
	}
	return st, int(b), int(j), true
}

func (s fleetShape) batch(stamp int64, b int) []logs.Action {
	out := make([]logs.Action, len(s.Principal))
	for j := range out {
		out[j] = logs.SndAct(fleetPrincipal(s.Principal[j]),
			logs.NameT(fmt.Sprintf("c%d", s.Channel[j])), logs.NameT(stampValue(stamp, b, j)))
	}
	return out
}
