package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"birds/internal/cdc"
	"birds/internal/engine"
	"birds/internal/server"
	"birds/internal/value"
	"birds/internal/wal"
)

// ingest-openloop: library use with no HTTP. One generator admits table
// writes through one Batcher on a fixed schedule, then as fast as a fixed
// window of outstanding commits allows; four CDC subscribers mirror luxury.
const (
	ingestItems  = 400_000
	ingestOwners = 100_000
	// ingestRate is well below the saturated admission rate of a 2-CPU
	// machine (30k–60k txn/s over the saturation phase, depending on what
	// else the machine runs), so the fixed-rate phase measures latency
	// below saturation even when the machine is busy.
	ingestRate = 15_000
	// ingestFixedShare is the share of the run spent at the fixed rate;
	// the saturation phase takes the rest.
	ingestFixedShare = 0.5
	// ingestWindow primes this many hot rows: transaction i deletes the
	// row inserted ingestWindow transactions earlier, so no insert and
	// delete cancel inside a batch.
	ingestWindow = 600
	// ingestOutstanding is the saturation phase's window of unresolved
	// commits.
	ingestOutstanding = 4 * engine.DefaultBatchSize
	ingestSubs        = 4
	// ingestCheckpoints is how many automatic checkpoints a run covers
	// at least.
	ingestCheckpoints = 3
	// ingestWindowLen is the width of the saturation phase's rate windows.
	// A background checkpoint takes a core for a second or more and lands
	// in a varying number of windows from run to run; the median window
	// rate is the sustained rate, and the checkpoints' cost shows in
	// commit_p99_ms and the wal.checkpoint_* figures instead.
	ingestWindowLen = 500 * time.Millisecond
)

var ingestShape = fmt.Sprintf("items=%d owners=%d; open loop, %d txn/s fixed rate for %.0f%% of the run, then saturation with %d outstanding commits; "+
	"one Batcher (batch %d, %s flush interval), fsync=flush, checkpoint every %d records; %d CDC subscribers on luxury",
	ingestItems, ingestOwners, ingestRate, 100*ingestFixedShare, ingestOutstanding,
	engine.DefaultBatchSize, server.DefaultFlushInterval, engine.DefaultCheckpointEvery, ingestSubs)

// ingestTxns generates the seeded transaction stream: each transaction
// inserts the next hot row and deletes the one inserted ingestWindow rows
// before it.
type ingestTxns struct {
	rng  *rand.Rand
	next int64 // index of the next hot row
}

func newIngestTxns(seed int64) *ingestTxns {
	return &ingestTxns{rng: rand.New(rand.NewSource(seed*7_919 + 17))}
}

func (g *ingestTxns) row() value.Tuple {
	id := hotBase + g.next
	g.next++
	return itemRow(id, fmt.Sprintf("hot%d", id), randomPrice(g.rng), randomOwner(g.rng, ingestOwners))
}

func (g *ingestTxns) txn() []engine.Statement {
	ins := g.row()
	return []engine.Statement{
		engine.Insert("items", ins...),
		engine.Delete("items", engine.Eq("iid", value.Int(ins[0].AsInt()-ingestWindow))),
	}
}

// dueTable holds the due time (Unix ns) of each fixed-rate transaction,
// indexed by the hot row it inserts; 0 means not timed. The generator
// writes it and the subscribers read it concurrently.
type dueTable []atomic.Int64

func (d dueTable) lookup(iid int64) int64 {
	if j := iid - hotBase; j >= 0 && j < int64(len(d)) {
		return d[j].Load()
	}
	return 0
}

// subscriber folds one CDC stream into a mirror and times each timed hot
// row from its transaction's due time to its arrival.
type subscriber struct {
	sub  *cdc.Subscription
	tr   *tracer
	dues dueTable

	mu      sync.Mutex
	mirror  *value.Relation
	lastSeq uint64
	lag     samples
	err     error
}

func (s *subscriber) consume(done chan<- struct{}) {
	defer close(done)
	for {
		ev, err := s.sub.Recv(context.Background())
		if err != nil {
			if !errors.Is(err, cdc.ErrClosed) {
				s.mu.Lock()
				s.err = err
				s.mu.Unlock()
			}
			return
		}
		at := time.Now()
		s.mu.Lock()
		for _, t := range ev.Inserts {
			if due := s.dues.lookup(t[0].AsInt()); due != 0 {
				s.lag.add(time.Duration(at.UnixNano() - due))
			}
		}
		s.mirror = cdc.ApplyEvent(s.mirror, ev)
		s.lastSeq = ev.Seq
		s.mu.Unlock()
		s.tr.record(0, "cdc.receive", 0, 0, at, time.Now())
	}
}

func (s *subscriber) seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

type ingestFixture struct {
	dir  string
	db   *engine.DB
	bt   *engine.Batcher
	fs   *timedFS
	inst *installer
	gen  *ingestTxns
	dues dueTable
	lsn0 uint64 // WAL position of the fixture's last checkpoint
	subs []*subscriber
	done []chan struct{}
}

func buildIngest(seed int64, seconds float64, tr *tracer) (*ingestFixture, error) {
	f := &ingestFixture{inst: &installer{tr: tr}, gen: newIngestTxns(seed)}
	f.dues = make(dueTable, ingestWindow+engine.DefaultBatchSize+int(ingestRate*ingestFixedShare*seconds)+1)
	var err error
	if f.dir, err = tempDir("ingest"); err != nil {
		return nil, err
	}
	f.db = engine.NewDB()
	hot := make([]value.Tuple, ingestWindow)
	for j := range hot {
		hot[j] = f.gen.row()
	}
	if err := loadItemsOwners(f.db, f.inst, seed, ingestItems, ingestOwners, hot); err != nil {
		f.close()
		return nil, err
	}
	opts := engine.DurabilityOptions{Dir: f.dir, Sync: wal.SyncOnFlush}
	if tr != nil {
		f.fs = newTimedFS(tr)
		opts.FS = f.fs
	}
	if err := f.db.EnableDurability(opts); err != nil {
		f.close()
		return nil, err
	}
	f.lsn0 = f.db.LastLSN()
	f.bt = f.db.Batch(engine.BatchOptions{MaxTxns: engine.DefaultBatchSize, FlushInterval: server.DefaultFlushInterval})
	for i := 0; i < ingestSubs; i++ {
		sub, err := f.db.Subscribe("luxury", cdc.SubOptions{})
		if err != nil {
			f.close()
			return nil, err
		}
		s := &subscriber{sub: sub, tr: tr, dues: f.dues}
		done := make(chan struct{})
		f.subs = append(f.subs, s)
		f.done = append(f.done, done)
		go s.consume(done)
	}
	// Warm-up: one full batch initializes the views' support counts.
	for i := 0; i < engine.DefaultBatchSize; i++ {
		if _, err := f.bt.ExecWait(f.gen.txn()...); err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

// stopSubscribers closes every subscription and waits for its consumer.
func (f *ingestFixture) stopSubscribers() {
	for i, s := range f.subs {
		s.sub.Close()
		<-f.done[i]
	}
	f.subs, f.done = nil, nil
}

func (f *ingestFixture) close() {
	f.stopSubscribers()
	if f.bt != nil {
		if err := f.bt.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "batcher close:", err)
		}
	}
	if f.db != nil {
		if err := f.db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
		}
	}
	os.RemoveAll(f.dir)
}

// pending is one admitted transaction awaiting its commit.
type pending struct {
	due, admitted time.Time
	c             engine.Commit
}

// collectCommits times each commit from its due time, and from its
// admission. Transactions of one batch share a Commit, so each batch is
// waited for once.
func collectCommits(in <-chan pending) (fromDue, fromAdmit samples, errs int) {
	var last engine.Commit
	var at time.Time
	var err error
	for p := range in {
		if p.c != last {
			<-p.c.Done()
			at, err, last = time.Now(), p.c.Err(), p.c
		}
		fromDue.add(at.Sub(p.due))
		fromAdmit.add(at.Sub(p.admitted))
		if err != nil {
			errs++
		}
	}
	return fromDue, fromAdmit, errs
}

func runIngest(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := newReport("ingest-openloop", seed)
	r.shape = ingestShape
	heap := watchHeap()
	f, setup, err := buildReplicas(func() (*ingestFixture, error) { return buildIngest(seed, seconds, tr) }, (*ingestFixture).close)
	if err != nil {
		heap.end()
		return nil, err
	}
	defer f.close()
	r.setE2E("setup_s", setup)

	if f.fs != nil {
		f.fs.reset()
	}
	bs0 := f.bt.Stats()
	cs0 := f.db.CDCStats()
	lagWatch := watchCDCLag(f.db)
	runtime.GC() // start the measured run from a collected heap
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	total := time.Duration(seconds * float64(time.Second))
	fixedEnd := start.Add(time.Duration(float64(total) * ingestFixedShare))

	// Fixed-rate phase. The channel lets the collector trail the generator
	// by a few hundred batches before the generator would block on it.
	first := f.gen.next
	ch := make(chan pending, 1<<15)
	var commitLat, admitLat samples
	var commitErrs, admitErrs int
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		commitLat, admitLat, commitErrs = collectCommits(ch)
	}()
	late := newPacer(start, ingestRate).run(before(fixedEnd), func(i int, due time.Time) {
		stmts := f.gen.txn()
		if j := stmts[0].Row[0].AsInt() - hotBase; j < int64(len(f.dues)) {
			f.dues[j].Store(due.UnixNano())
		}
		id := tr.id()
		t0 := time.Now()
		_, c, err := f.bt.ExecAsync(stmts...)
		admitted := time.Now()
		tr.record(id, "engine.exec_async", 0, id, t0, admitted)
		if err != nil {
			admitErrs++
			return
		}
		ch <- pending{due: due, admitted: admitted, c: c}
	})
	close(ch)
	<-collected
	fixedTxns := f.gen.next - first

	// Saturation phase, from a collected heap: the fixed-rate phase's
	// garbage would otherwise be collected in a varying share of it. It
	// runs past the end of the run, by at most another run length, until
	// the WAL has grown by three automatic checkpoints' worth of records.
	runtime.GC()
	satStart := time.Now()
	satEnd := start.Add(total)
	satCap := satEnd.Add(total)
	ckptLSN := f.lsn0 + ingestCheckpoints*engine.DefaultCheckpointEvery
	more := func(now time.Time, admitted uint64) bool {
		if now.Before(satEnd) {
			return true
		}
		// LastLSN takes the engine's read lock; ask once per batch.
		return now.Before(satCap) && (admitted%engine.DefaultBatchSize != 0 || f.db.LastLSN() < ckptLSN)
	}
	var window []engine.Commit
	satDone := 0
	wait := func(c engine.Commit) {
		<-c.Done()
		if c.Err() != nil {
			commitErrs++
		} else {
			satDone++
		}
	}
	satFirst := f.gen.next
	var rates samples // commits per second in each full window
	winStart, winDone := satStart, 0
	for now := time.Now(); more(now, uint64(f.gen.next-satFirst)); now = time.Now() {
		if d := now.Sub(winStart); d >= ingestWindowLen {
			rates = append(rates, float64(satDone-winDone)/d.Seconds())
			winStart, winDone = now, satDone
		}
		_, c, err := f.bt.ExecAsync(f.gen.txn()...)
		if err != nil {
			admitErrs++
			continue
		}
		window = append(window, c)
		if len(window) >= ingestOutstanding {
			wait(window[0])
			window = window[1:]
		}
	}
	if err := f.bt.Flush(); err != nil {
		return nil, fmt.Errorf("final flush: %w", err)
	}
	for _, c := range window {
		wait(c)
	}
	satElapsed := time.Since(satStart)
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	rt1 := readRuntime()
	bs1 := f.bt.Stats()
	cs1 := f.db.CDCStats()
	maxLag := lagWatch.end()

	// Quiesce: wait for every subscriber to reach the last published seq.
	if err := f.quiesce(cs1.Seq); err != nil {
		return nil, err
	}
	live, err := f.db.Get("luxury")
	if err != nil {
		return nil, err
	}
	mirrors := make([]*value.Relation, len(f.subs))
	var lag samples
	for i, s := range f.subs {
		s.mu.Lock()
		mirrors[i] = s.mirror
		lag = append(lag, s.lag...)
		if s.err != nil && r.checkErr == nil {
			r.checkErr = fmt.Errorf("subscriber %d: %w", i, s.err)
		}
		s.mu.Unlock()
	}
	if r.checkErr == nil {
		r.checkErr = checkMirrors(live, mirrors, commitErrs)
	}

	txns := int(f.gen.next - first)
	r.attempted = txns
	r.failed = admitErrs + commitErrs
	r.setLatency(r.e2e, "commit_p50_ms", commitLat, 50)
	r.setLatency(r.e2e, "commit_p99_ms", commitLat, 99)
	r.setLatency(r.e2e, "commit_admit_p50_ms", admitLat, 50)
	r.e2e["ingest_tps"] = measure{V: rates.percentile(50), N: len(rates),
		Note: fmt.Sprintf("median of %s windows; mean over the phase %.0f", ingestWindowLen, float64(satDone)/satElapsed.Seconds())}
	r.setLatency(r.e2e, "cdc_lag_p50_ms", lag, 50)
	r.setLatency(r.e2e, "cdc_lag_p99_ms", lag, 99)
	r.setE2E("error_rate", float64(r.failed)/float64(max(txns, 1)))
	r.setOpCPU(cpu, txns-r.failed, "process CPU per committed transaction, both phases")
	r.setLatency(r.layers, "bench.gen_late_p99_ms", late, 99)
	setBatchLayers(r, bs0, bs1, elapsed)
	r.setLayer("cdc.events_per_s", float64(cs1.Published-cs0.Published)/elapsed.Seconds())
	r.setLayer("cdc.dropped", float64(cs1.Dropped-cs0.Dropped))
	r.setLayer("cdc.resyncs", float64(cs1.Resyncs-cs0.Resyncs))
	r.setLayer("cdc.max_lag_seqs", float64(maxLag))
	if f.fs != nil {
		setWALLayers(r, f.fs.figures(), elapsed, txns)
	}
	f.inst.setLayers(r)
	r.setLayer("engine.stale_views", float64(staleViews(f.db)))
	r.setRuntime(rt0, rt1, txns, heap.end())
	fmt.Printf("ingest: %d fixed-rate txns, %d saturation txns in %.1fs, %d WAL records since set-up (%d checkpoint cadences)\n",
		fixedTxns, f.gen.next-satFirst, satElapsed.Seconds(), f.db.LastLSN()-f.lsn0, (f.db.LastLSN()-f.lsn0)/engine.DefaultCheckpointEvery)
	return r, nil
}

func (f *ingestFixture) quiesce(seq uint64) error {
	deadline := time.Now().Add(60 * time.Second)
	for _, s := range f.subs {
		for s.seq() < seq {
			if time.Now().After(deadline) {
				return fmt.Errorf("subscriber stuck at seq %d, hub at %d", s.seq(), seq)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// cdcLagWatch samples the hub's largest subscriber lag, in sequence
// numbers, until stopped.
type cdcLagWatch struct {
	peak uint64
	stop chan struct{}
	done chan struct{}
}

func watchCDCLag(db *engine.DB) *cdcLagWatch {
	w := &cdcLagWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.peak = max(w.peak, db.CDCStats().MaxLagSeqs)
			}
		}
	}()
	return w
}

func (w *cdcLagWatch) end() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}
