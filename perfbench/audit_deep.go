package main

// audit-deep: the Definition-3 audit path. The store is preloaded with
// about 100k records of relay traffic holding 2k relay chains at
// uniformly random depths. One open-loop stream POSTs claims to provd's
// HTTP /audit — 80% genuine chains, 20% forgeries, every verdict known
// in advance — while a second trickles small batches through
// provclient, so every audit refreshes the incremental global snapshot
// before logs.Le scans it. fsync on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/denote"
	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/provd"
	"repro/internal/store"
)

const (
	auditPrincipals = 256
	auditChains     = 2048
	auditMinHops    = 2
	auditMaxHops    = 8
	auditLogSize    = 100_000
	auditPeriod     = 50 * time.Millisecond // 20 audits/s
	// The trickle runs at 40 batches/s: enough samples that the
	// append tail of a window is steady; it stays a small load next to
	// the audits (640 records/s).
	tricklePeriod   = 25 * time.Millisecond
	trickleBatchLen = 16
	preloadChunk    = 4096
	auditFsync      = false
)

type auditRig struct {
	dir     string
	st      *store.Store
	srv     *provd.Server
	httpSrv *http.Server
	url     string
	hc      *http.Client
	ing     *ingest.Server
	tc      *provclient.Client
}

func (g *auditRig) close() {
	if g.tc != nil {
		g.tc.Close()
	}
	if g.hc != nil {
		g.hc.CloseIdleConnections()
	}
	if g.httpSrv != nil {
		g.httpSrv.Close()
	}
	if g.ing != nil {
		g.ing.Close()
	}
	if g.st != nil {
		g.st.Close()
	}
}

// auditSetup preloads the relay log (without fsync: it is history, not
// the workload), reopens the store with fsync, starts provd's HTTP
// surface and the binary listener, handshakes the trickle producer and
// builds the global snapshot once.
func auditSetup(dir string, lg relayLog) (*auditRig, error) {
	pre, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(lg.Acts); i += preloadChunk {
		if _, err := pre.AppendBatch(lg.Acts[i:min(i+preloadChunk, len(lg.Acts))]); err != nil {
			pre.Close()
			return nil, err
		}
	}
	if err := pre.Close(); err != nil {
		return nil, err
	}
	g := &auditRig{dir: dir}
	if g.st, err = store.Open(dir, store.Options{Fsync: auditFsync}); err != nil {
		return nil, err
	}
	g.srv = provd.NewServer(g.st, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	g.httpSrv = &http.Server{Handler: g.srv}
	go g.httpSrv.Serve(ln)
	g.url = "http://" + ln.Addr().String() + "/audit"
	g.hc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
	g.ing = ingest.NewServer(g.st, ingest.Options{Engine: g.srv.Engine()})
	addr, err := g.ing.Listen("127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	g.tc = provclient.New(addr, provclient.Options{Conns: 1, Session: "trickle"})
	if _, err := g.tc.CommittedFloor(); err != nil {
		g.close()
		return nil, err
	}
	g.st.GlobalLog()
	return g, nil
}

// post sends one audit and decodes the verdict.
func (g *auditRig) post(body []byte) (provd.AuditResponse, error) {
	var out provd.AuditResponse
	resp, err := g.hc.Post(g.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("audit status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

func runAuditDeep(r *Run) error {
	nAudits := int(time.Duration(r.Seconds) * time.Second / auditPeriod)
	nTrickle := int(time.Duration(r.Seconds) * time.Second / tricklePeriod)
	r.Config("shape", "open loop, 2 streams")
	r.Config("audit_rate_per_s", float64(time.Second/auditPeriod))
	r.Config("trickle_rate_per_s", float64(time.Second/tricklePeriod))
	r.Config("batch", trickleBatchLen)
	r.Config("principals", auditPrincipals)
	r.Config("chains", fmt.Sprintf("%d of %d-%d hops", auditChains, auditMinHops, auditMaxHops))
	r.Config("log_records", auditLogSize)
	r.Config("claims", "80% genuine, 20% forged (principal swap or direction flip)")
	r.Config("fsync", auditFsync)
	r.Config("leaders", 1)

	lg := genRelayLog(r.Seed, auditPrincipals, auditChains, auditMinHops, auditMaxHops, auditLogSize)
	claims := genClaims(r.Seed, lg, nAudits)
	bodies := make([][]byte, len(claims))
	forged := 0
	for i, c := range claims {
		b, err := json.Marshal(auditRequest(c))
		if err != nil {
			return err
		}
		bodies[i] = b
		if !c.Genuine {
			forged++
		}
	}
	tr := newRand(r.Seed, 4)
	trickle := make([][]logs.Action, nTrickle)
	for i := range trickle {
		trickle[i] = trickleBatch(tr, lg.Principals, i, trickleBatchLen)
	}

	g, err := timedSetup(r, func(i int) (*auditRig, error) {
		return auditSetup(filepath.Join(r.Dir, fmt.Sprintf("setup%d", i)), lg)
	}, func(g *auditRig) { g.close(); os.RemoveAll(g.dir) })
	if err != nil {
		return err
	}
	defer g.close()
	preloaded := g.st.NextSeq()
	engine := g.srv.Engine()

	// Traced runs time the audit's layers for the same claim after the
	// HTTP call: the engine's AuditTerm, then the snapshot, the
	// denotation and the order check one by one.
	type leSample struct {
		d     time.Duration
		depth uint64
	}
	var (
		tracedAudits, tracedForged int
		leDepth                    []leSample
		httpSelf                   []float64 // per decomposed claim: HTTP span minus AuditTerm span, ms
	)
	auditOp := func(i int) bool {
		c := claims[i]
		root := r.Trace.Start("audit", 0, uint64(i))
		sp := r.Trace.Start("provd.audit_http", root.ID(), uint64(i))
		resp, err := g.post(bodies[i])
		httpDur := sp.End()
		ok := err == nil && resp.Correct == c.Genuine
		// Every fourth traced audit is decomposed: the same claim through
		// the engine, then layer by layer. Decomposing every audit would
		// triple the audit work and put the stream behind schedule.
		if r.Trace != nil && i%4 == 0 {
			term := logs.NameT(c.Value)
			sp = r.Trace.Start("query.audit_term", root.ID(), uint64(i))
			verdict := engine.AuditTerm(term, c.Prov) == nil
			httpSelf = append(httpSelf, ms(httpDur-sp.End()))
			tracedAudits++
			if !c.Genuine {
				tracedForged++
			}
			ok = ok && verdict == c.Genuine
			dec := r.Trace.Start("audit.decomposed", root.ID(), uint64(i))
			sp = r.Trace.Start("store.global_log_warm", dec.ID(), uint64(i))
			phi := g.st.GlobalLog()
			head := g.st.NextSeq()
			sp.End()
			sp = r.Trace.Start("denote.denote_term", dec.ID(), uint64(i))
			den := denote.DenoteTerm(term, c.Prov)
			sp.End()
			sp = r.Trace.Start("logs.le", dec.ID(), uint64(i))
			le := logs.Le(den, phi)
			d := sp.End()
			dec.End()
			ok = ok && le == c.Genuine
			if c.Genuine {
				leDepth = append(leDepth, leSample{d, head - uint64(lg.Chains[c.Chain].Oldest)})
			}
		}
		root.End()
		return ok
	}
	var trickleAcked int
	trickleOp := func(i int) bool {
		sp := r.Trace.Start("provclient.append_batch", 0, 1<<32|uint64(i))
		_, err := g.tc.AppendBatch(trickle[i])
		sp.End()
		if err != nil {
			return false
		}
		trickleAcked += trickleBatchLen
		if r.Trace != nil {
			sp = r.Trace.Start("store.global_log", 0, 1<<32|uint64(i))
			g.st.GlobalLog()
			sp.End()
		}
		return true
	}

	before := snapshot([]*ingest.Server{g.ing}, []*store.Store{g.st})
	start := time.Now().Add(20 * time.Millisecond)
	dur := time.Duration(r.Seconds) * time.Second
	var audits, appends StreamResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); audits = runOpenLoop(start, auditPeriod, dur, auditOp) }()
	go func() { defer wg.Done(); appends = runOpenLoop(start, tricklePeriod, dur, trickleOp) }()
	wg.Wait()
	after := snapshot([]*ingest.Server{g.ing}, []*store.Store{g.st})
	r.Ops(audits)
	r.Ops(appends)
	r.E2E("heap_mb", liveHeapMiB())
	r.E2E("records_per_s", ratio(float64(trickleAcked), appends.Elapsed.Seconds()))
	r.latency("append", "append (trickle batch ack, from due time)", split(appends.Lat))
	r.latency("read", "read (/audit verdict, from due time)", split(audits.Lat))
	r.Note("audits: %d issued, %d forged, %d wrong or failed", audits.Attempts, forged, audits.Failed)

	auditsDelta := after.store.Audits - before.store.Audits
	failDelta := after.store.AuditFailures - before.store.AuditFailures
	wantAudits := uint64(audits.Attempts + tracedAudits)
	wantFails := uint64(forged + tracedForged)
	r.Check(fmt.Sprintf("store counted every audit (%d of %d)", auditsDelta, wantAudits), auditsDelta == wantAudits)
	r.Check(fmt.Sprintf("store counted every forged claim as a failure (%d of %d)", failDelta, wantFails), failDelta == wantFails)
	r.Check("every verdict equals the generator's", audits.Failed == 0)

	if r.Trace != nil {
		r.layerDeltas(before, after, uint64(trickleAcked))
		r.Layer("store.audits", float64(auditsDelta))
		r.Layer("store.audit_failures", float64(failDelta))
		s := r.spanSummary("provclient.append_batch")
		r.Layer("provclient.append_batch_ms_p50", ms(s.P50))
		r.Layer("provclient.append_batch_ms_tail", ms(s.Tail))
		s = r.spanSummary("store.global_log")
		r.Layer("store.global_log_ms_p50", ms(s.P50))
		r.Layer("store.global_log_ms_tail", ms(s.Tail))
		r.Layer("provd.audit_http_ms_p50", ms(r.spanSummary("provd.audit_http").P50))
		r.Layer("query.audit_term_ms_p50", ms(r.spanSummary("query.audit_term").P50))
		r.Layer("provd.audit_http_self_ms_p50", medianF(httpSelf))
		r.Layer("denote.denote_term_us_p50", us(r.spanSummary("denote.denote_term").P50))
		s = r.spanSummary("logs.le")
		r.Layer("logs.le_ms_p50", ms(s.P50))
		r.Layer("logs.le_ms_tail", ms(s.Tail))
		var leSum time.Duration
		var depthSum uint64
		for _, x := range leDepth {
			leSum += x.d
			depthSum += x.depth
		}
		r.Layer("logs.le_ns_per_depth", ratio(float64(leSum), float64(depthSum)))
		late := Summarize(append(append([]time.Duration(nil), audits.Late...), appends.Late...))
		r.Layer("loadgen.lateness_ms_tail", ms(late.Tail))
		r.Layer("loadgen.achieved_over_offered", min(audits.onSchedule(), appends.onSchedule()))
	}

	g.tc.Close()
	g.tc = nil
	g.hc.CloseIdleConnections()
	g.httpSrv.Close()
	g.httpSrv = nil
	g.ing.Close()
	g.ing = nil
	total := g.st.NextSeq()
	if err := g.st.Close(); err != nil {
		return err
	}
	g.st = nil
	diskBytes, err := dirBytes(g.dir)
	if err != nil {
		return err
	}
	r.E2E("disk_bytes_per_record", ratio(float64(diskBytes), float64(total)))
	st, recover, err := timeRecovery(g.dir, store.Options{Fsync: auditFsync})
	if err != nil {
		return err
	}
	g.st = st
	r.Note("recover: store.Open of the closed store, fastest of %d opens: %.4f s", setupRepeats, recover)
	want := preloaded + uint64(trickleAcked)
	r.Check(fmt.Sprintf("recovery found the preload and every trickle record (%d of %d)", st.Stats().RecoveredRecords, want),
		st.Stats().RecoveredRecords == want)
	return nil
}
