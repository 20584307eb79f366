package main

// ingest-durable: the whole durable write path and nothing else. Two
// closed-loop producers, each its own sessioned provclient over one
// connection, append 64-action batches spread Zipf-wise over 1024
// principals with fsync on (provd's default). The work is a fixed
// record count, so heap, disk and recovery are measured at the same
// log size whichever commit runs it; a faster write path shows as a
// shorter timed phase. At the end the store is closed, reopened and
// verified through the binary read path.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/logs"
	"repro/internal/provclient"
	"repro/internal/store"
	"repro/internal/wire"
)

const (
	durableProducers  = 2
	durableBatch      = 64
	durablePrincipals = 1024
	// durableRate sizes the fixed record count: records per second of
	// --seconds. It is about what the parent commit sustains on a
	// 2-core host with fsync on, so the timed phase lasts about
	// --seconds there.
	durableRate = 12000
	// durableReadPage is the page size of the verification walk, and
	// readPasses how many times the reopened log is walked.
	durableReadPage = 1024
	readPasses      = 3
)

type durableRig struct {
	dir string
	st  *store.Store
	ing *ingest.Server
	cls []*provclient.Client
}

func (g *durableRig) close() {
	for _, c := range g.cls {
		c.Close()
	}
	if g.ing != nil {
		g.ing.Close()
	}
	if g.st != nil {
		g.st.Close()
	}
}

// durableSetup opens an fsync store, pre-creates every principal's
// shard, starts the listener and handshakes each producer's session.
func durableSetup(dir string, fsync bool) (*durableRig, error) {
	g := &durableRig{dir: dir}
	st, err := store.Open(dir, store.Options{Fsync: fsync})
	if err != nil {
		return nil, err
	}
	g.st = st
	init := make([]logs.Action, durablePrincipals)
	for i := range init {
		init[i] = logs.SndAct(durablePrincipal(i), logs.NameT("init"), logs.NameT(fmt.Sprintf("i%04d", i)))
	}
	if _, err := st.AppendBatch(init); err != nil {
		g.close()
		return nil, err
	}
	g.ing = ingest.NewServer(st, ingest.Options{})
	addr, err := g.ing.Listen("127.0.0.1:0")
	if err != nil {
		g.close()
		return nil, err
	}
	for p := 0; p < durableProducers; p++ {
		c := provclient.New(addr, provclient.Options{Conns: 1, Session: fmt.Sprintf("producer-%d", p)})
		g.cls = append(g.cls, c)
		if _, err := c.CommittedFloor(); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func runIngestDurable(r *Run) error {
	const fsync = true
	perProducer := max(r.Seconds*durableRate/(durableBatch*durableProducers), 1)
	r.Config("shape", "closed loop")
	r.Config("producers", durableProducers)
	r.Config("conns_per_producer", 1)
	r.Config("batch", durableBatch)
	r.Config("principals", durablePrincipals)
	r.Config("principal_skew", fmt.Sprintf("zipf s=%g v=%g", zipfS, float64(zipfV)))
	r.Config("fsync", fsync)
	r.Config("leaders", 1)
	r.Config("records", perProducer*durableBatch*durableProducers)

	gen := func() [][][]logs.Action {
		out := make([][][]logs.Action, durableProducers)
		for p := range out {
			out[p] = durableBatches(r.Seed, p, perProducer, durableBatch, durablePrincipals)
		}
		return out
	}
	batches := gen()

	g, err := timedSetup(r, func(i int) (*durableRig, error) {
		return durableSetup(filepath.Join(r.Dir, fmt.Sprintf("setup%d", i)), fsync)
	}, func(g *durableRig) { g.close(); os.RemoveAll(g.dir) })
	if err != nil {
		return err
	}
	defer g.close()
	initRecords := uint64(durablePrincipals)

	// The fixed work runs as `windows` rounds of equal size, both
	// producers together in each; throughput and latency are the
	// medians over rounds, so a transient stall on the host moves one
	// round, not the run.
	before := snapshot([]*ingest.Server{g.ing}, []*store.Store{g.st})
	bases := make([][]uint64, durableProducers)
	results := make([]StreamResult, durableProducers)
	for p := range bases {
		bases[p] = make([]uint64, perProducer)
	}
	var (
		rates   []float64
		rounds  [][]time.Duration
		elapsed time.Duration
	)
	for w := 0; w < windows; w++ {
		lo, hi := w*perProducer/windows, (w+1)*perProducer/windows
		round := make([]StreamResult, durableProducers)
		var wg sync.WaitGroup
		for p := 0; p < durableProducers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				round[p] = runClosedLoop(hi-lo, func(i int) bool {
					i += lo
					sp := r.Trace.Start("provclient.append_batch", 0, uint64(p)<<32|uint64(i))
					base, err := g.cls[p].AppendBatch(batches[p][i])
					sp.End()
					bases[p][i] = base
					return err == nil
				})
			}(p)
		}
		wg.Wait()
		res := merge(round...)
		elapsed += res.Elapsed
		rates = append(rates, ratio(float64((res.Attempts-res.Failed)*durableBatch), res.Elapsed.Seconds()))
		rounds = append(rounds, res.Lat)
		for p := range round {
			results[p].Lat = append(results[p].Lat, round[p].Lat...)
			results[p].Attempts += round[p].Attempts
			results[p].Failed += round[p].Failed
		}
	}
	after := snapshot([]*ingest.Server{g.ing}, []*store.Store{g.st})
	res := merge(results...)
	r.Ops(res)
	acked := uint64(res.Attempts-res.Failed) * durableBatch
	r.E2E("records_per_s", medianF(rates))
	r.Note("timed phase: %d records acked in %v, %d rounds", acked, elapsed.Round(time.Millisecond), windows)
	r.latency("append", "append (batch ack)", rounds)
	// The inputs are regenerated for verification, so the live heap is
	// the system's own: store, listener and clients.
	batches = nil
	r.E2E("heap_mb", liveHeapMiB())

	if r.Trace != nil {
		r.layerDeltas(before, after, acked)
		s := r.spanSummary("provclient.append_batch")
		r.Layer("provclient.append_batch_ms_p50", ms(s.P50))
		r.Layer("provclient.append_batch_ms_tail", ms(s.Tail))
	}

	for _, c := range g.cls {
		c.Close()
	}
	g.cls = nil
	g.ing.Close()
	g.ing = nil
	if err := g.st.Close(); err != nil {
		return err
	}
	g.st = nil

	diskBytes, err := dirBytes(g.dir)
	if err != nil {
		return err
	}
	total := initRecords + acked
	r.E2E("disk_bytes_per_record", ratio(float64(diskBytes), float64(total)))
	st, recover, err := timeRecovery(g.dir, store.Options{Fsync: fsync})
	if err != nil {
		return err
	}
	g.st = st
	r.Note("recover: store.Open of the closed store, fastest of %d opens: %.4f s", setupRepeats, recover)
	r.Check(fmt.Sprintf("recovery found every record (RecoveredRecords %d, acked %d + %d pre-created)", st.Stats().RecoveredRecords, acked, initRecords),
		st.Stats().RecoveredRecords == total)

	// Verify through the binary read path, one page at a time: every
	// acked record is present exactly once, at the sequence its ack
	// named, in sequence order.
	batches = gen()
	want := make([]logs.Action, total)
	placed := make([]bool, total)
	misplaced := 0
	for p := range bases {
		for i, base := range bases[p] {
			if results[p].Lat[i] == failedLatency {
				continue
			}
			for j, a := range batches[p][i] {
				seq := base + uint64(j)
				if seq >= total || seq < initRecords || placed[seq] {
					misplaced++
					continue
				}
				want[seq], placed[seq] = a, true
			}
		}
	}
	r.Check("every ack named a distinct sequence inside the log", misplaced == 0)
	g.ing = ingest.NewServer(st, ingest.Options{})
	addr, err := g.ing.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	qc := provclient.New(addr, provclient.Options{Conns: 1})
	defer qc.Close()
	// One pass walks the whole log page by page and checks it; the
	// passes after the first time the warm read path.
	walk := func() (pages []time.Duration, seen uint64, outOfOrder, wrong, fails int) {
		var from uint64
		prev := int64(-1)
		for {
			t0 := time.Now()
			recs, _, err := qc.QueryAll(wire.QuerySpec{MinSeq: from, Limit: durableReadPage})
			if err != nil {
				return pages, seen, outOfOrder, wrong, fails + 1
			}
			pages = append(pages, time.Since(t0))
			if len(recs) == 0 {
				return pages, seen, outOfOrder, wrong, fails
			}
			for _, rec := range recs {
				if int64(rec.Seq) <= prev {
					outOfOrder++
				}
				prev = int64(rec.Seq)
				seen++
				if rec.Seq >= initRecords && (rec.Seq >= total || !placed[rec.Seq] || rec.Act != want[rec.Seq]) {
					wrong++
				}
			}
			from = recs[len(recs)-1].Seq + 1
		}
	}
	var reads [][]time.Duration
	for pass := 0; pass < readPasses; pass++ {
		pages, seen, outOfOrder, wrong, fails := walk()
		r.Ops(StreamResult{Attempts: len(pages) + fails, Failed: fails})
		reads = append(reads, split(pages)...)
		if pass == 0 {
			r.Check(fmt.Sprintf("reopened log holds exactly the %d records (read %d)", total, seen), seen == total)
			r.Check("reopened log is in strictly ascending sequence order", outOfOrder == 0)
			r.Check("every acked record is present at its acked sequence", wrong == 0)
		}
	}
	r.latency("read", fmt.Sprintf("read (recovered log, %d passes of %d-record pages over the binary read path)", readPasses, durableReadPage), reads)

	if r.Trace != nil {
		r.Layer("store.principals_per_batch", meanPrincipals(batches))
		if err := durableTwins(r, batches); err != nil {
			return err
		}
	}
	return nil
}

func meanPrincipals(batches [][][]logs.Action) float64 {
	var sum, n float64
	for _, bs := range batches {
		for _, b := range bs {
			sum += float64(distinctPrincipals(b))
			n++
		}
	}
	return ratio(sum, n)
}

// durableTwins replays the first part of the generated batches straight
// into two twin stores, one with fsync and one without, timing every
// AppendBatch: the store's share of an append, and the share of that
// which is fsync.
func durableTwins(r *Run, batches [][][]logs.Action) error {
	n := max(len(batches[0])/4, 1)
	total := func(span string) time.Duration {
		var t time.Duration
		for _, d := range r.Trace.Durations(span) {
			t += d
		}
		return t
	}
	replay := func(name, span string, fsync bool) error {
		g, err := durableSetup(filepath.Join(r.Dir, name), fsync)
		if err != nil {
			return err
		}
		defer g.close()
		var wg sync.WaitGroup
		errs := make([]error, len(batches))
		for p := range batches {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < n && errs[p] == nil; i++ {
					sp := r.Trace.Start(span, 0, uint64(p)<<32|uint64(i))
					_, errs[p] = g.st.AppendBatch(batches[p][i])
					sp.End()
				}
			}(p)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := replay("twin-fsync", "store.append_batch", true); err != nil {
		return err
	}
	if err := replay("twin-nosync", "store.append_batch_nosync", false); err != nil {
		return err
	}
	synced := r.spanSummary("store.append_batch")
	r.Layer("store.append_batch_ms_p50", ms(synced.P50))
	r.Layer("store.append_batch_ms_tail", ms(synced.Tail))
	r.Layer("store.fsync_share", 1-ratio(float64(total("store.append_batch_nosync")), float64(total("store.append_batch"))))
	return nil
}
