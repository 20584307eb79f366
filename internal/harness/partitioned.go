package harness

// The partitioned multi-leader path: Spec.Leaders > 1 boots N partition
// leaders under one cluster map and drives the workload through
// internal/cluster routing clients instead of plain provclients. The
// fleet shape mirrors production: every leader runs the full
// mutual-TLS + identity stack, producers dial through per-leader fault
// proxies (stable map addresses across leader restarts), and StaleMap
// faults roll a new map epoch onto the leaders while the producers keep
// their old one — forcing the reject → refetch → re-route path.
//
// The invariants shift with the topology. Leaders mint independent
// sequence spines, so the single-leader "acked base equals control
// base" lockstep is meaningless here; instead the harness proves:
//
//   - per-partition spine: each leader's global sequence is contiguous;
//   - exactly-once per principal: each principal's action sequence,
//     concatenated across its owner history (at most two leaders — a
//     StaleMap moves a principal at most once), is bit-identical to the
//     no-fault control, and no other leader holds any of it;
//   - merged read plane: a paginated cluster.Fleet walk over the fleet
//     returns exactly the control's record multiset, duplicate-free,
//     and in per-principal order for principals that never moved;
//   - audit locality: every claim naming a single unmoved principal
//     gets the same Definition-3 verdict on its owning leader as on the
//     control store (claims naming moved principals are counted as
//     skipped — their logs are split until shards migrate, the
//     documented epoch-rollout caveat);
//   - session-dedup soundness: every leader's exported session blocks
//     are backed by its log.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cluster"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testutil"
)

func runPartitioned(sc *scenario.Scenario, opts Options) (*Result, error) {
	start := time.Now()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		d, err := os.MkdirTemp("", "harness-")
		if err != nil {
			return nil, err
		}
		dir = d
	}
	res := &Result{Seed: sc.Seed, Batches: len(sc.Batches), Faults: make(map[string]int)}
	sopts := store.Options{Fsync: opts.Fsync}

	sec, err := newClusterAuth()
	if err != nil {
		return nil, err
	}
	control, err := store.Open(filepath.Join(dir, "control"), sopts)
	if err != nil {
		return nil, err
	}
	defer control.Close()

	// Leaders first. Ownership is a pure function of (epoch, leader IDs,
	// overrides) — addresses don't enter the hash — so the nodes boot on
	// a placeholder map and learn the real proxy addresses right after.
	L := sc.Spec.Leaders
	ids := make([]string, L)
	for i := range ids {
		ids[i] = fmt.Sprintf("L%d", i)
	}
	mkMap := func(epoch uint64, ingest []string, overrides map[string]int) (*cluster.Map, error) {
		ls := make([]cluster.Leader, L)
		for i := range ls {
			ls[i] = cluster.Leader{ID: ids[i], Ingest: ingest[i], TLSName: "leader"}
		}
		ov := make(map[string]int, len(overrides))
		for p, idx := range overrides {
			ov[p] = idx
		}
		m := &cluster.Map{Epoch: epoch, Leaders: ls, Overrides: ov}
		if err := m.Validate(); err != nil {
			return nil, err
		}
		return m, nil
	}
	boot, err := mkMap(1, placeholderAddrs(L), nil)
	if err != nil {
		return nil, err
	}
	nodes := make([]*cluster.Node, L)
	leaders := make([]*leaderNode, L)
	proxies := make([]*testutil.Proxy, L)
	for i := 0; i < L; i++ {
		if nodes[i], err = cluster.NewNode(boot, ids[i]); err != nil {
			return nil, err
		}
		n := &leaderNode{
			dir: filepath.Join(dir, fmt.Sprintf("leader%d", i)), sopts: sopts,
			tlsConf: sec.server, guard: sec.guard, cnode: nodes[i],
		}
		if err := n.start(); err != nil {
			return nil, err
		}
		defer func() { n.stop() }()
		leaders[i] = n
		p, err := testutil.NewProxyTLS(n.addr, sec.server, sec.producer)
		if err != nil {
			return nil, err
		}
		defer p.Close()
		proxies[i] = p
	}
	proxyAddrs := make([]string, L)
	for i, p := range proxies {
		proxyAddrs[i] = p.Addr()
	}
	epoch := uint64(1)
	overrides := make(map[string]int)
	m, err := mkMap(epoch, proxyAddrs, overrides)
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if err := n.SetMap(m); err != nil {
			return nil, err
		}
	}

	// Routing producers: exactly-once per-leader sessions behind one
	// logical session each. They hold the epoch-1 map; StaleMap rollouts
	// update only the leaders, so producers must recover in-band.
	producers := make([]*cluster.Client, sc.Spec.Producers)
	for p := range producers {
		producers[p] = cluster.NewClient(m, cluster.ClientOptions{
			Conns:          1,
			Retries:        8,
			RequestTimeout: 10 * time.Second,
			Session:        fmt.Sprintf("sim-%d-p%d", sc.Seed, p),
			TLS:            sec.producer,
		})
		defer producers[p].Close()
	}

	// movedFrom/movedTo track each re-homed principal's owner history
	// (the compiler moves a principal at most once).
	movedFrom := make(map[string]int)
	movedTo := make(map[string]int)
	inject := func(f scenario.Fault) error {
		res.Faults[f.Kind.String()]++
		logf("batch %d: inject %s target=%d", f.Batch, f.Kind, f.Target)
		switch f.Kind {
		case scenario.DropAck:
			proxies[f.Batch%L].ArmAckDrop()
		case scenario.DropConn:
			for _, p := range proxies {
				p.CutConns()
			}
		case scenario.KillLeader:
			res.LeaderKills++
			t := f.Target
			if t < 0 || t >= L {
				t = 0
			}
			if err := leaders[t].restart(); err != nil {
				return err
			}
			proxies[t].SetBackend(leaders[t].addr)
			proxies[t].CutConns()
		case scenario.StaleMap:
			p := scenario.PrincipalName(f.Target)
			old := m.Owner(p)
			overrides[p] = (old + 1) % L
			movedFrom[p], movedTo[p] = old, overrides[p]
			epoch++
			nm, err := mkMap(epoch, proxyAddrs, overrides)
			if err != nil {
				return err
			}
			for _, n := range nodes {
				if err := n.SetMap(nm); err != nil {
					return err
				}
			}
			m = nm
			res.Epochs++
			logf("batch %d: epoch %d moves %s L%d→L%d", f.Batch, epoch, p, old, overrides[p])
		}
		return nil
	}

	// Drive the schedule. The control store appends in lockstep, but
	// acked bases are not comparable: each partition mints its own
	// spine. Exactly-once is proven structurally after the drain.
	next := 0
	for b, batch := range sc.Batches {
		for next < len(sc.Faults) && sc.Faults[next].Batch <= b {
			if err := inject(sc.Faults[next]); err != nil {
				return res, err
			}
			next++
		}
		if _, err := control.AppendBatch(batch.Acts); err != nil {
			return res, fmt.Errorf("control append %d: %w", b, err)
		}
		if err := producers[batch.Producer].AppendBatch(batch.Acts); err != nil {
			return res, fmt.Errorf("batch %d (producer %d): %w", b, batch.Producer, err)
		}
	}
	for ; next < len(sc.Faults); next++ {
		if err := inject(sc.Faults[next]); err != nil {
			return res, err
		}
	}
	for _, p := range producers {
		if err := p.Close(); err != nil {
			return res, fmt.Errorf("producer close: %w", err)
		}
	}

	// Invariant gauntlet. Totals first: the fleet as a whole holds
	// exactly the workload.
	var fleetRecords uint64
	for _, n := range leaders {
		fleetRecords += n.st.NextSeq()
	}
	res.Records = fleetRecords
	if want := control.NextSeq(); fleetRecords != want {
		return res, fmt.Errorf("fleet holds %d records, control %d — lost or duplicated batch", fleetRecords, want)
	}
	// Per-partition spine and session soundness.
	for i, n := range leaders {
		if err := testutil.CheckSpine(n.st); err != nil {
			return res, fmt.Errorf("leader %d spine: %w", i, err)
		}
		if err := testutil.BackedSessionEntries(n.st); err != nil {
			return res, fmt.Errorf("leader %d session table: %w", i, err)
		}
	}
	// Exactly-once per principal, across the owner history.
	perLeader := make([]map[string][]logs.Action, L)
	for i, n := range leaders {
		perLeader[i] = actionsByPrincipal(n.st)
	}
	want := actionsByPrincipal(control)
	for pi := 0; pi < sc.Spec.Principals; pi++ {
		p := scenario.PrincipalName(pi)
		holders := []int{m.Owner(p)}
		if from, ok := movedFrom[p]; ok {
			holders = []int{from, movedTo[p]}
		}
		var got []logs.Action
		for _, h := range holders {
			got = append(got, perLeader[h][p]...)
		}
		if err := sameActions(got, want[p]); err != nil {
			return res, fmt.Errorf("principal %s (leaders %v): %w", p, holders, err)
		}
		for i := range leaders {
			if i != holders[0] && i != holders[len(holders)-1] && len(perLeader[i][p]) > 0 {
				return res, fmt.Errorf("principal %s: %d stray records on non-owner leader %d", p, len(perLeader[i][p]), i)
			}
		}
	}
	// Merged read plane: a paginated Fleet walk (read identity, direct
	// leader addresses — the proxies re-dial with the producer's
	// append-only cert) returns the control's exact record multiset.
	readAddrs := make([]string, L)
	for i, n := range leaders {
		readAddrs[i] = n.addr
	}
	readMap, err := mkMap(epoch, readAddrs, overrides)
	if err != nil {
		return res, err
	}
	rc := cluster.NewClient(readMap, cluster.ClientOptions{
		Conns: 1, RequestTimeout: 10 * time.Second, TLS: sec.replica,
	})
	defer rc.Close()
	fleet := cluster.NewFleet(rc)
	merged, err := walkMerged(fleet)
	if err != nil {
		return res, fmt.Errorf("merged walk: %w", err)
	}
	if err := checkMerged(merged, control, sc.Spec.Principals, movedFrom); err != nil {
		return res, err
	}
	// Audit locality: single-principal claims judged on the owning
	// leader must match the control verdict bit for bit. Claims naming
	// a moved principal are skipped (split log until shards migrate).
	for ci, claim := range sc.Claims {
		wantV := referenceVerdict(control, claim)
		if len(claim.Prov) == 0 {
			// Prov-less claims depend on no principal's log: every
			// partition must return the control verdict.
			for i, n := range leaders {
				if got := n.st.AuditTerm(claim.Term, claim.Prov) == nil; got != wantV {
					return res, fmt.Errorf("claim %d (%s): leader %d verdict %v, control %v", ci, claim.Term, i, got, wantV)
				}
			}
			res.ClaimsChecked++
			continue
		}
		p := claim.Prov[0].Principal
		if _, moved := movedFrom[p]; moved {
			res.ClaimsSkipped++
			continue
		}
		owner := leaders[m.Owner(p)]
		if got := owner.st.AuditTerm(claim.Term, claim.Prov) == nil; got != wantV {
			return res, fmt.Errorf("claim %d (%s, principal %s): owner verdict %v, control %v", ci, claim.Term, p, got, wantV)
		}
		res.ClaimsChecked++
	}
	// The provd app layer serves on every partition leader.
	for i, n := range leaders {
		resp, err := http.Get(n.http.URL + "/healthz")
		if err != nil {
			return res, fmt.Errorf("leader %d healthz: %w", i, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return res, fmt.Errorf("leader %d healthz: status %d", i, resp.StatusCode)
		}
	}

	for i, n := range leaders {
		res.AcksDropped += proxies[i].AcksDropped()
		res.Replays += n.replays + n.ing.Stats().DedupReplays
	}
	res.Elapsed = time.Since(start)
	if opts.Dir == "" {
		defer os.RemoveAll(dir)
	}
	return res, nil
}

// placeholderAddrs fills a bootstrap map before listeners exist;
// ownership hashes only leader IDs, never addresses.
func placeholderAddrs(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = "boot.invalid:0"
	}
	return out
}

// actionsByPrincipal walks a store's global log and buckets actions by
// principal, preserving the store's append order. Sequence numbers are
// deliberately dropped: partition spines are independent, so only the
// action sequences are comparable across stores.
func actionsByPrincipal(st *store.Store) map[string][]logs.Action {
	out := make(map[string][]logs.Action)
	var from uint64
	for {
		recs := st.ScanGlobal(from, 0, 4096)
		if len(recs) == 0 {
			return out
		}
		for _, r := range recs {
			out[r.Act.Principal] = append(out[r.Act.Principal], r.Act)
		}
		from = recs[len(recs)-1].Seq + 1
	}
}

func sameActions(got, want []logs.Action) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, control has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("record %d differs: %+v vs control %+v", i, got[i], want[i])
		}
	}
	return nil
}

// walkMerged pages the fleet's merged global feed to exhaustion using
// the vector cursor, exactly as an external reader would.
func walkMerged(fleet *cluster.Fleet) ([]logs.Action, error) {
	var out []logs.Action
	q := query.Query{Limit: 512}
	for {
		pg, err := fleet.Run(q)
		if err != nil {
			return nil, err
		}
		for _, r := range pg.Records {
			out = append(out, r.Act)
		}
		if len(pg.Records) == 0 || pg.Cursor == "" {
			return out, nil
		}
		q.Cursor = pg.Cursor
	}
}

// checkMerged proves the merged read plane returned exactly the control
// store's multiset of actions — nothing lost, nothing duplicated — and
// preserved per-principal order for every principal that never changed
// owner (a moved principal's two segments interleave by per-leader
// sequence, which has no cross-partition meaning).
func checkMerged(merged []logs.Action, control *store.Store, principals int, movedFrom map[string]int) error {
	want := actionsByPrincipal(control)
	got := make(map[string][]logs.Action)
	for _, a := range merged {
		got[a.Principal] = append(got[a.Principal], a)
	}
	total := 0
	for pi := 0; pi < principals; pi++ {
		p := scenario.PrincipalName(pi)
		total += len(want[p])
		if _, moved := movedFrom[p]; moved {
			if err := sameMultiset(got[p], want[p]); err != nil {
				return fmt.Errorf("merged feed, principal %s: %w", p, err)
			}
			continue
		}
		if err := sameActions(got[p], want[p]); err != nil {
			return fmt.Errorf("merged feed, principal %s: %w", p, err)
		}
	}
	if len(merged) != total {
		return fmt.Errorf("merged feed returned %d records, control holds %d", len(merged), total)
	}
	return nil
}

func sameMultiset(got, want []logs.Action) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d records, control has %d", len(got), len(want))
	}
	counts := make(map[logs.Action]int, len(want))
	for _, a := range want {
		counts[a]++
	}
	for _, a := range got {
		counts[a]--
		if counts[a] < 0 {
			return fmt.Errorf("record %+v appears more often than in control", a)
		}
	}
	return nil
}
