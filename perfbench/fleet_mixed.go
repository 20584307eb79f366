package main

// fleet-mixed: a live 2-leader partitioned fleet. Both leaders run at
// once in this process, each over its own store (fsync off, so CPU-path
// changes are not buried in device noise), with a replica following
// leader L0. One open-loop stream routes small stamped batches through
// cluster.Client.Append; a second reads channel-filtered merged tail
// pages through cluster.Fleet.Run. A watcher on the replica store times
// each stamped L0 record from creation to visibility.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/query"
	"repro/internal/replica"
	"repro/internal/store"
	"repro/internal/wire"
)

const (
	fleetLeaders = 2
	// fleetPrincipals is small on purpose: a channel-filtered merged
	// tail scans a full page from every shard on each leader, so page
	// cost grows with the principal count, and with 64 principals the
	// page was memory-bound enough to swing 45% with the host's load.
	fleetPrincipals = 16
	fleetHistory    = 256 // setup records per (principal, channel): one full page
	fleetBatch      = 32
	// fleetPeriod paces the append stream at 125 batches/s (4k
	// records/s), a small fraction of what the parent commit sustains
	// on a 2-core host (about 1.9k batches/s with the query stream
	// running). The stream is one sequential client, so at higher rates
	// a hiccup on a shared host queues the batches behind it for long
	// enough to make runs disagree.
	fleetPeriod = 8 * time.Millisecond
	queryPeriod = 25 * time.Millisecond // 40 merged pages/s
	queryLimit  = 256
)

type fleetRig struct {
	root    string
	dirs    []string
	stores  []*store.Store
	ings    []*ingest.Server
	m       *cluster.Map
	owner   []int // leader index per fleet principal
	cl      *cluster.Client
	fleet   *cluster.Fleet
	repSt   *store.Store
	rep     *replica.Replicator
	history uint64 // records appended by setup
}

func (g *fleetRig) close() {
	if g.rep != nil {
		g.rep.Stop() // a second Stop returns at once
	}
	if g.cl != nil {
		g.cl.Close()
	}
	for _, s := range g.ings {
		s.Close()
	}
	for _, s := range g.stores {
		if s != nil {
			s.Close()
		}
	}
	if g.repSt != nil {
		g.repSt.Close()
	}
}

// fleetSetup boots both leaders on a live map, appends the history
// through the routing client, then starts the replica on L0 (it
// bootstraps from a snapshot) and waits until it holds L0's log.
func fleetSetup(dir string) (*fleetRig, error) {
	g := &fleetRig{root: dir}
	// Nodes need a map before listeners exist; ownership hashes only
	// leader IDs, so boot on placeholder addresses and install the real
	// map once every listener is up.
	boot := make([]cluster.Leader, fleetLeaders)
	for i := range boot {
		boot[i] = cluster.Leader{ID: fmt.Sprintf("L%d", i), Ingest: "boot.invalid:0"}
	}
	bm := &cluster.Map{Epoch: 1, Leaders: boot}
	if err := bm.Validate(); err != nil {
		return nil, err
	}
	var nodes []*cluster.Node
	live := make([]cluster.Leader, fleetLeaders)
	for i := range boot {
		d := filepath.Join(dir, fmt.Sprintf("leader%d", i))
		st, err := store.Open(d, store.Options{})
		if err != nil {
			g.close()
			return nil, err
		}
		g.dirs, g.stores = append(g.dirs, d), append(g.stores, st)
		node, err := cluster.NewNode(bm, boot[i].ID)
		if err != nil {
			g.close()
			return nil, err
		}
		nodes = append(nodes, node)
		ing := ingest.NewServer(st, ingest.Options{Engine: query.NewEngine(st, nil), Cluster: node})
		addr, err := ing.Listen("127.0.0.1:0")
		if err != nil {
			g.close()
			return nil, err
		}
		g.ings = append(g.ings, ing)
		live[i] = cluster.Leader{ID: boot[i].ID, Ingest: addr}
	}
	g.m = &cluster.Map{Epoch: 1, Leaders: live}
	if err := g.m.Validate(); err != nil {
		g.close()
		return nil, err
	}
	for _, n := range nodes {
		if err := n.SetMap(g.m); err != nil {
			g.close()
			return nil, err
		}
	}
	g.owner = make([]int, fleetPrincipals)
	for p := range g.owner {
		g.owner[p] = g.m.Owner(fleetPrincipal(p))
	}
	g.cl = cluster.NewClient(g.m, cluster.ClientOptions{Conns: 1})
	g.fleet = cluster.NewFleet(g.cl)
	// History: fleetHistory records per (principal, channel), so every
	// shard already holds a full page of every channel and a filtered
	// tail page costs the same from the first query of the timed phase
	// to the last.
	hist := make([]logs.Action, 0, fleetPrincipals*fleetChannels*fleetHistory)
	for k := 0; k < fleetHistory; k++ {
		for p := 0; p < fleetPrincipals; p++ {
			for c := 0; c < fleetChannels; c++ {
				hist = append(hist, logs.SndAct(fleetPrincipal(p), logs.NameT(fmt.Sprintf("c%d", c)), logs.NameT(fmt.Sprintf("h%07d", len(hist)))))
			}
		}
	}
	for i := 0; i < len(hist); i += 1024 {
		if _, err := g.cl.Append(hist[i:min(i+1024, len(hist))]); err != nil {
			g.close()
			return nil, err
		}
	}
	g.history = uint64(len(hist))
	repSt, err := store.Open(filepath.Join(dir, "replica"), store.Options{})
	if err != nil {
		g.close()
		return nil, err
	}
	g.repSt = repSt
	g.rep = replica.New(repSt, live[0].Ingest, replica.Options{PollInterval: 100 * time.Millisecond})
	g.rep.Start()
	if !g.waitReplica(30 * time.Second) {
		g.close()
		return nil, fmt.Errorf("replica did not catch up with L0 during setup")
	}
	return g, nil
}

// waitReplica waits until the replica holds everything L0 has.
func (g *fleetRig) waitReplica(limit time.Duration) bool {
	for deadline := time.Now().Add(limit); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if g.repSt.NextSeq() >= g.stores[0].NextSeq() {
			return true
		}
	}
	return false
}

// follower watches the replica store and times every stamped record
// from creation to visibility.
type follower struct {
	st       *store.Store
	t0       time.Time
	from     uint64
	mu       sync.Mutex
	lat      []time.Duration
	seen     []uint8 // times each (batch, slot) was seen, at batch*fleetBatch+slot
	distinct int
	stray    int // stamped records naming no generated slot
	stop     chan struct{}
	done     chan struct{}
}

func startFollower(st *store.Store, t0 time.Time, batches int) *follower {
	f := &follower{st: st, t0: t0, from: st.NextSeq(), seen: make([]uint8, batches*fleetBatch), stop: make(chan struct{}), done: make(chan struct{})}
	w := st.NewWatcher()
	go func() {
		defer close(f.done)
		defer w.Close()
		for {
			select {
			case <-f.stop:
				f.scan()
				return
			case <-w.C():
				f.scan()
			}
		}
	}()
	return f
}

func (f *follower) scan() {
	recs := f.st.ScanGlobal(f.from, 0, -1)
	now := time.Since(f.t0)
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range recs {
		stamp, b, j, ok := parseStamp(rec.Act.B.Name)
		if !ok {
			continue
		}
		f.lat = append(f.lat, now-time.Duration(stamp))
		if k := b*fleetBatch + j; b < 0 || j >= fleetBatch || k >= len(f.seen) {
			f.stray++
		} else {
			if f.seen[k] == 0 {
				f.distinct++
			}
			f.seen[k]++
		}
	}
	if len(recs) > 0 {
		f.from = recs[len(recs)-1].Seq + 1
	}
}

func (f *follower) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.distinct
}

func (f *follower) close() {
	close(f.stop)
	<-f.done
}

// checkPage verifies one merged tail page: bounded, filtered, strictly
// ascending in the merge's (sequence, leader) order, no duplicates.
func checkPage(recs []wire.Record, ch string, owner func(string) int) bool {
	if len(recs) > queryLimit {
		return false
	}
	for i, rec := range recs {
		if rec.Act.A.Name != ch {
			return false
		}
		if i > 0 {
			prev := recs[i-1]
			if prev.Seq > rec.Seq || (prev.Seq == rec.Seq && owner(prev.Act.Principal) >= owner(rec.Act.Principal)) {
				return false
			}
		}
	}
	return true
}

func runFleetMixed(r *Run) error {
	dur := time.Duration(r.Seconds) * time.Second
	nBatches := int(dur / fleetPeriod)
	r.Config("shape", "open loop, 2 streams")
	r.Config("leaders", fmt.Sprintf("%d co-located, running at once, replica following L0", fleetLeaders))
	r.Config("append_rate_per_s", float64(time.Second/fleetPeriod))
	r.Config("query_rate_per_s", float64(time.Second/queryPeriod))
	r.Config("batch", fleetBatch)
	r.Config("principals", fleetPrincipals)
	r.Config("query", fmt.Sprintf("channel-filtered merged tail, limit %d", queryLimit))
	r.Config("fsync", false)

	shapes := fleetShapes(r.Seed, nBatches, fleetBatch, fleetPrincipals)
	g, err := timedSetup(r, func(i int) (*fleetRig, error) {
		return fleetSetup(filepath.Join(r.Dir, fmt.Sprintf("setup%d", i)))
	}, func(g *fleetRig) { g.close(); os.RemoveAll(g.root) })
	if err != nil {
		return err
	}
	defer g.close()
	r.Config("history_records", g.history)
	ownerOf := func(p string) int { return g.m.Owner(p) }
	repBefore := g.rep.Status()

	t0 := time.Now()
	fol := startFollower(g.repSt, t0, nBatches)
	var (
		acked      uint64
		l0Expected int
		partitions []float64
	)
	appendOp := func(i int) bool {
		stamp := time.Since(t0)
		batch := shapes[i].batch(int64(stamp), i)
		root := r.Trace.Start("cluster.append", 0, uint64(i))
		if r.Trace != nil {
			sp := r.Trace.Start("cluster.split", root.ID(), uint64(i))
			for _, a := range batch {
				g.m.Owner(a.Principal)
			}
			sp.End()
		}
		acks, err := g.cl.Append(batch)
		root.End()
		if err != nil {
			return false
		}
		n := 0
		for _, a := range acks {
			n += a.Records
		}
		partitions = append(partitions, float64(len(acks)))
		for _, p := range shapes[i].Principal {
			if g.owner[p] == 0 {
				l0Expected++
			}
		}
		acked += uint64(n)
		return n == len(batch)
	}
	var pageRecs []float64
	queryOp := func(i int) bool {
		ch := fmt.Sprintf("c%d", i%fleetChannels)
		q := query.Query{Channel: ch, Tail: true, Limit: queryLimit}
		sp := r.Trace.Start("query.merged_page", 0, 1<<32|uint64(i))
		page, err := g.fleet.Run(q)
		sp.End()
		if err != nil {
			return false
		}
		pageRecs = append(pageRecs, float64(len(page.Records)))
		ok := checkPage(page.Records, ch, ownerOf)
		// Every fourth traced page is decomposed into a bare dial and one
		// page per leader for the same spec; doing it for every page
		// would double the read load the traced run offers.
		if r.Trace != nil && i%4 == 0 {
			spec := wire.QuerySpec{Channel: ch, Tail: true, Limit: queryLimit}
			for _, l := range g.m.Leaders {
				sp := r.Trace.Start("provclient.dial", 0, 1<<32|uint64(i))
				nc, err := net.Dial("tcp", l.Ingest)
				sp.End()
				if err == nil {
					nc.Close()
				}
				c, err := g.cl.Leader(l.ID)
				if err != nil {
					return false
				}
				sp = r.Trace.Start("query.leader_page", 0, 1<<32|uint64(i))
				_, _, err = c.QueryAll(spec)
				sp.End()
				ok = ok && err == nil
			}
		}
		return ok
	}

	var lags []time.Duration
	stopLag := make(chan struct{})
	lagDone := make(chan struct{})
	go func() {
		defer close(lagDone)
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopLag:
				return
			case <-tick.C:
				// Lag in records, carried as a Duration so the same
				// percentile rule applies.
				lags = append(lags, time.Duration(g.rep.Status().LagRecords))
			}
		}
	}()

	before := snapshot(g.ings, g.stores)
	start := time.Now().Add(20 * time.Millisecond)
	var appends, queries StreamResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); appends = runOpenLoop(start, fleetPeriod, dur, appendOp) }()
	go func() { defer wg.Done(); queries = runOpenLoop(start, queryPeriod, dur, queryOp) }()
	wg.Wait()
	after := snapshot(g.ings, g.stores)
	close(stopLag)
	<-lagDone
	r.Ops(appends)
	r.Ops(queries)
	r.E2E("heap_mb", liveHeapMiB())
	r.E2E("records_per_s", ratio(float64(acked), appends.Elapsed.Seconds()))
	r.latency("append", "append (routed batch ack, from due time)", split(appends.Lat))
	r.latency("read", "read (merged tail page, from due time)", split(queries.Lat))
	r.Note("load generator: append stream %.3f, query stream %.3f of its offered rate",
		appends.onSchedule(), queries.onSchedule())

	// Follow: the replica must hold every stamped L0 record exactly once
	// and equal L0 record for record.
	caught := g.waitReplica(30 * time.Second)
	for deadline := time.Now().Add(10 * time.Second); fol.count() < l0Expected && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	fol.close()
	fs := Summarize(fol.lat)
	r.Note("follow (creation stamp to visible in the replica store): p50 %.3f ms, p%.4g %.3f ms over %d records",
		ms(fs.P50), fs.TailPct, ms(fs.Tail), fs.N)
	dups := fol.stray
	for _, n := range fol.seen {
		if n > 1 {
			dups++
		}
	}
	r.Check("replica caught up with L0", caught)
	r.Check(fmt.Sprintf("every stamped L0 record reached the replica exactly once (%d of %d, %d repeated or stray)", fol.distinct, l0Expected, dups),
		fol.distinct == l0Expected && dups == 0)
	r.Check("replica equals L0 record for record", sameLog(g.stores[0], g.repSt))
	r.Check("every merged page was bounded, filtered and strictly ascending with no duplicates", queries.Failed == 0)
	r.Check("every routed batch was acked whole", appends.Failed == 0)
	repAfter := g.rep.Status()

	if r.Trace != nil {
		r.layerDeltas(before, after, acked)
		s := r.spanSummary("cluster.append")
		r.Layer("cluster.append_ms_p50", ms(s.P50))
		r.Layer("cluster.partitions_per_batch", medianF(partitions))
		r.Layer("cluster.split_us_p50", us(r.spanSummary("cluster.split").P50))
		r.Layer("provclient.dial_ms_p50", ms(r.spanSummary("provclient.dial").P50))
		r.Layer("query.leader_page_ms_p50", ms(r.spanSummary("query.leader_page").P50))
		r.Layer("query.merged_page_ms_p50", ms(r.spanSummary("query.merged_page").P50))
		var sum float64
		for _, n := range pageRecs {
			sum += n
		}
		r.Layer("query.records_per_page", ratio(sum, float64(len(pageRecs))))
		r.Layer("replica.follow_ms_p50", ms(fs.P50))
		r.Layer("replica.follow_ms_tail", ms(fs.Tail))
		r.Layer("replica.records_per_apply", ratio(float64(repAfter.AppliedRecords-repBefore.AppliedRecords), float64(repAfter.AppliedBatches-repBefore.AppliedBatches)))
		r.Layer("replica.lag_records_tail", float64(Summarize(lags).Tail))
		r.Layer("replica.gaps", float64(repAfter.Gaps-repBefore.Gaps))
		r.Layer("replica.stall_breaks", float64(repAfter.StallBreaks-repBefore.StallBreaks))
		late := Summarize(append(append([]time.Duration(nil), appends.Late...), queries.Late...))
		r.Layer("loadgen.lateness_ms_tail", ms(late.Tail))
		r.Layer("loadgen.achieved_over_offered", min(appends.onSchedule(), queries.onSchedule()))
	}

	g.rep.Stop()
	g.cl.Close()
	g.cl = nil
	for _, s := range g.ings {
		s.Close()
	}
	g.ings = nil
	l0Records := g.stores[0].NextSeq()
	var diskBytes int64
	for i, s := range g.stores {
		if err := s.Close(); err != nil {
			return err
		}
		g.stores[i] = nil
		n, err := dirBytes(g.dirs[i])
		if err != nil {
			return err
		}
		diskBytes += n
	}
	r.E2E("disk_bytes_per_record", ratio(float64(diskBytes), float64(acked+g.history)))
	st, recover, err := timeRecovery(g.dirs[0], store.Options{})
	if err != nil {
		return err
	}
	g.stores[0] = st
	r.Note("recover: store.Open of the closed store, fastest of %d opens: %.4f s", setupRepeats, recover)
	r.Check(fmt.Sprintf("L0 recovered every record (%d of %d)", st.Stats().RecoveredRecords, l0Records),
		st.Stats().RecoveredRecords == l0Records)
	return nil
}

// sameLog compares two stores' merged logs record for record.
func sameLog(a, b *store.Store) bool {
	if a.NextSeq() != b.NextSeq() {
		return false
	}
	var from uint64
	for {
		x := a.ScanGlobal(from, 0, 4096)
		y := b.ScanGlobal(from, 0, 4096)
		if len(x) != len(y) {
			return false
		}
		if len(x) == 0 {
			return true
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		from = x[len(x)-1].Seq + 1
	}
}
