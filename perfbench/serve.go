package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"birds/internal/engine"
	"birds/internal/server"
	"birds/internal/value"
	"birds/internal/wal"
)

// serve-mixed: an in-process HTTP server with production defaults over a
// durable database, driven by two closed-loop keep-alive sessions.
const (
	serveItems    = 100_000
	serveOwners   = 1_000
	serveSessions = 2
)

var serveShape = fmt.Sprintf("items=%d owners=%d; closed loop, %d sessions (one keep-alive connection each); "+
	"server.Config{} (batch %d, %s flush interval), fsync=flush, checkpoint every %d records",
	serveItems, serveOwners, serveSessions, engine.DefaultBatchSize, server.DefaultFlushInterval, engine.DefaultCheckpointEvery)

type opKind int

const (
	opWrite opKind = iota // base-table /exec: insert a hot row, delete the previous one
	opView                // view update through luxury's putback
	opRead                // GET /views/owned
	opStats               // GET /stats
)

func (k opKind) String() string { return [...]string{"write", "view", "read", "stats"}[k] }

// op is one generated serve-mixed operation.
type op struct {
	kind  opKind
	price int64 // new row's price (writes and view updates)
	owner int64 // new row's owner (writes)
}

// opBlock is the op mix: every block of 20 operations a session runs holds
// exactly these kinds — 45% writes, 10% view updates, 30% reads and 15%
// /stats polls — in a seeded order. Fixed counts per block keep the mix
// the same from seed to seed; only the order varies.
var opBlock = [20]opKind{
	opWrite, opWrite, opWrite, opWrite, opWrite, opWrite, opWrite, opWrite, opWrite,
	opView, opView,
	opRead, opRead, opRead, opRead, opRead, opRead,
	opStats, opStats, opStats,
}

// opStream is one session's seeded operation sequence.
type opStream struct {
	rng   *rand.Rand
	block [20]opKind
	pos   int
}

func newOpStream(seed int64, session int) *opStream {
	return &opStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(session))), pos: len(opBlock)}
}

func (s *opStream) next() op {
	if s.pos == len(s.block) {
		s.block = opBlock
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
		s.pos = 0
	}
	o := op{kind: s.block[s.pos], price: randomPrice(s.rng), owner: randomOwner(s.rng, serveOwners)}
	s.pos++
	if o.kind == opView {
		o.price = luxuryMin + 1 + int64(s.rng.Intn(1000))
		o.owner = noOwner
	}
	return o
}

// hotBase is the first iid the sessions insert; generated rows sit below it.
const hotBase = int64(1) << 40

func hotID(session int, seq int64) int64 { return hotBase + int64(session)<<32 + seq }

// --- wire -------------------------------------------------------------------

type wireCond struct {
	Col string `json:"col"`
	Op  string `json:"op"`
	Val any    `json:"val"`
}

type wireStmt struct {
	Op     string     `json:"op"`
	Target string     `json:"target"`
	Row    []any      `json:"row,omitempty"`
	Where  []wireCond `json:"where,omitempty"`
}

// replaceRow is the body of an /exec that inserts row into target and,
// when prev is not 0, deletes the row with iid prev.
func replaceRow(target string, row value.Tuple, prev int64) []byte {
	cols := make([]any, len(row))
	for i, v := range row {
		if v.Kind() == value.KindString {
			cols[i] = v.AsString()
		} else {
			cols[i] = v.AsInt()
		}
	}
	stmts := []wireStmt{{Op: "insert", Target: target, Row: cols}}
	if prev != 0 {
		stmts = append(stmts, wireStmt{Op: "delete", Target: target, Where: []wireCond{{"iid", "=", prev}}})
	}
	return []byte(mustJSON(map[string]any{"stmts": stmts}))
}

type wireRelation struct {
	Name  string              `json:"name"`
	Arity int                 `json:"arity"`
	Rows  [][]json.RawMessage `json:"rows"`
}

// decodeRelation reads a wire relation of ints and strings.
func decodeRelation(w wireRelation) (*value.Relation, error) {
	rel := value.NewRelation(w.Arity)
	for _, row := range w.Rows {
		t := make(value.Tuple, len(row))
		for i, raw := range row {
			if len(raw) > 0 && raw[0] == '"' {
				var s string
				if err := json.Unmarshal(raw, &s); err != nil {
					return nil, err
				}
				t[i] = value.Str(s)
				continue
			}
			n, err := strconv.ParseInt(string(raw), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("relation %s: value %s is not an int", w.Name, raw)
			}
			t[i] = value.Int(n)
		}
		rel.Add(t)
	}
	return rel, nil
}

// --- fixture ----------------------------------------------------------------

type serveFixture struct {
	dir  string
	db   *engine.DB
	srv  *server.Server
	hs   *http.Server
	done chan error
	base string
	tap  *serverTap
	fs   *timedFS
	inst *installer
	sess []*session
}

func buildServe(seed int64, tr *tracer) (*serveFixture, error) {
	f := &serveFixture{inst: &installer{tr: tr}}
	var err error
	if f.dir, err = tempDir("serve"); err != nil {
		return nil, err
	}
	f.db = engine.NewDB()
	if err := loadItemsOwners(f.db, f.inst, seed, serveItems, serveOwners, nil); err != nil {
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
	f.srv = server.New(f.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	var h http.Handler = f.srv.Handler()
	if tr != nil {
		f.tap = &serverTap{tr: tr, next: h}
		h = f.tap
	}
	f.hs = &http.Server{Handler: h}
	f.done = make(chan error, 1)
	go func() { f.done <- f.hs.Serve(ln) }()
	f.base = "http://" + ln.Addr().String()
	for i := 0; i < serveSessions; i++ {
		s := &session{id: i, c: newClient(f.base, tr), stream: newOpStream(seed, i)}
		f.sess = append(f.sess, s)
		if err := s.warmUp(); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *serveFixture) close() {
	if f.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = f.hs.Shutdown(ctx) // sessions are idle; a late close only delays exit
		cancel()
		if err := <-f.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "serve:", err)
		}
		for _, s := range f.sess {
			s.c.hc.CloseIdleConnections()
		}
	}
	if f.srv != nil {
		if err := f.srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "drain:", err)
		}
	}
	if f.db != nil {
		if err := f.db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "close:", err)
		}
	}
	os.RemoveAll(f.dir)
}

// --- client -----------------------------------------------------------------

type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	tp := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tp, Timeout: 60 * time.Second}, tr: tr}
}

// do sends one request and reads the whole response.
func (c *client) do(kind, method, path string, body []byte) (time.Duration, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	id := c.tr.id()
	if c.tr != nil {
		req.Header.Set("X-Bench-Span", strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	var out []byte
	if err == nil {
		out, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(out))
		}
	}
	end := time.Now()
	c.tr.record(id, "client."+kind, 0, id, start, end)
	return end.Sub(start), out, err
}

// serverTap is the benchmark's middleware around the server's handler: it
// times each request and counts the bytes of each response.
type serverTap struct {
	tr   *tracer
	next http.Handler

	mu                 sync.Mutex
	exec, read, stats  samples
	readBytes, readCnt int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (t *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Span"), 10, 64)
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	t.next.ServeHTTP(cw, r)
	end := time.Now()
	route := strings.SplitN(strings.TrimPrefix(r.URL.Path, "/"), "/", 2)[0]
	t.tr.record(0, "server."+route, parent, parent, start, end)
	t.mu.Lock()
	defer t.mu.Unlock()
	switch route {
	case "exec":
		t.exec.add(end.Sub(start))
	case "views":
		t.read.add(end.Sub(start))
		t.readBytes += cw.n
		t.readCnt++
	case "stats":
		t.stats.add(end.Sub(start))
	}
}

// --- sessions ---------------------------------------------------------------

type sessionResult struct {
	writes, views, reads, afterSnap samples
	attempted, failed               int
	// expect holds the rows this session's last acked write and view
	// update left in items; nil when a failure leaves them unknown.
	expect []value.Tuple
}

type session struct {
	id      int
	c       *client
	stream  *opStream
	seq     int64
	lastHot int64 // iid of the current hot row; 0 before the first write
	lastLux int64
	hotRow  value.Tuple
	luxRow  value.Tuple
	unsure  bool // an op failed: the final rows are not known
}

// exec runs one operation and returns its round-trip time.
func (s *session) exec(o op) (time.Duration, error) {
	switch o.kind {
	case opWrite, opView:
		s.seq++
		id := hotID(s.id, s.seq)
		target, prev, name := "items", s.lastHot, "hot"
		if o.kind == opView {
			target, prev, name = "luxury", s.lastLux, "lux"
		}
		row := itemRow(id, fmt.Sprintf("%s%d", name, id), o.price, o.owner)
		d, _, err := s.c.do(o.kind.String(), http.MethodPost, "/exec", replaceRow(target, row, prev))
		if err != nil {
			s.unsure = true
			return d, err
		}
		if o.kind == opWrite {
			s.lastHot, s.hotRow = id, row
		} else {
			s.lastLux, s.luxRow = id, row
		}
		return d, nil
	case opRead:
		d, _, err := s.c.do("read", http.MethodGet, "/views/owned", nil)
		return d, err
	default:
		d, _, err := s.c.do("stats", http.MethodGet, "/stats", nil)
		return d, err
	}
}

// warmUp runs each kind of operation once, unmeasured, so the first
// measured op finds indexes built and support counts initialized.
func (s *session) warmUp() error {
	for _, k := range []opKind{opWrite, opView, opRead, opStats, opWrite, opView} {
		o := s.stream.next()
		o.kind = k
		if k == opView {
			o.price, o.owner = luxuryMin+1, noOwner
		}
		if _, err := s.exec(o); err != nil {
			return fmt.Errorf("warm-up %s: %w", k, err)
		}
	}
	return nil
}

func (s *session) run(end time.Time) sessionResult {
	var r sessionResult
	prev := opWrite
	for time.Now().Before(end) {
		o := s.stream.next()
		d, err := s.exec(o)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "session %d: %v\n", s.id, err)
			prev = o.kind
			continue
		}
		switch o.kind {
		case opWrite:
			r.writes.add(d)
			if prev == opStats {
				r.afterSnap.add(d)
			}
		case opView:
			r.views.add(d)
		case opRead:
			r.reads.add(d)
		}
		prev = o.kind
	}
	if !s.unsure {
		r.expect = []value.Tuple{s.hotRow, s.luxRow}
	}
	return r
}

// --- run --------------------------------------------------------------------

func runServe(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := newReport("serve-mixed", seed)
	r.shape = serveShape
	heap := watchHeap()
	f, setup, err := buildReplicas(func() (*serveFixture, error) { return buildServe(seed, tr) }, (*serveFixture).close)
	if err != nil {
		heap.end()
		return nil, err
	}
	defer f.close()
	sessions := f.sess
	r.setE2E("setup_s", setup)

	if f.fs != nil {
		f.fs.reset()
	}
	bs0 := f.srv.Batcher().Stats()
	runtime.GC() // start the measured run from a collected heap
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	results := make([]sessionResult, len(sessions))
	var wg sync.WaitGroup
	for i, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.run(end)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cpu := cpuTime() - cpu0
	rt1 := readRuntime()
	bs1 := f.srv.Batcher().Stats()

	var all sessionResult
	var expect []value.Tuple
	unsure := false
	for _, x := range results {
		all.writes = append(all.writes, x.writes...)
		all.views = append(all.views, x.views...)
		all.reads = append(all.reads, x.reads...)
		all.afterSnap = append(all.afterSnap, x.afterSnap...)
		all.attempted += x.attempted
		all.failed += x.failed
		if x.expect == nil {
			unsure = true
		}
		expect = append(expect, x.expect...)
	}
	r.attempted, r.failed = all.attempted, all.failed
	completed := all.attempted - all.failed
	r.setLatency(r.e2e, "write_p50_ms", all.writes, 50)
	r.setLatency(r.e2e, "write_p99_ms", all.writes, 99)
	r.setLatency(r.e2e, "view_update_p50_ms", all.views, 50)
	r.setLatency(r.e2e, "view_update_p90_ms", all.views, 90)
	r.setLatency(r.e2e, "read_p50_ms", all.reads, 50)
	r.setLatency(r.e2e, "read_p99_ms", all.reads, 99)
	r.setE2E("ops_per_s", float64(completed)/elapsed.Seconds())
	r.setE2E("error_rate", float64(all.failed)/float64(max(all.attempted, 1)))
	r.setOpCPU(cpu, completed, "process CPU per completed op, server and clients")
	r.setLatency(r.layers, "engine.write_after_snapshot_ms", all.afterSnap, 50)

	if tr != nil {
		setServerLayers(r, f.tap, tr.snapshot())
		setBatchLayers(r, bs0, bs1, elapsed)
		setWALLayers(r, f.fs.figures(), elapsed, len(all.writes)+len(all.views))
	}
	f.inst.setLayers(r)
	r.setLayer("engine.stale_views", float64(staleViews(f.db)))
	r.setRuntime(rt0, rt1, completed, heap.end())

	if unsure {
		expect = nil
	}
	r.checkErr = f.check(expect)
	return r, nil
}

// check reads items, owners, luxury and owned in one atomic /query.
func (f *serveFixture) check(expect []value.Tuple) error {
	body := []byte(`{"rels":["items","owners","luxury","owned"]}`)
	c := newClient(f.base, nil)
	defer c.hc.CloseIdleConnections()
	_, out, err := c.do("query", http.MethodPost, "/query", body)
	if err != nil {
		return err
	}
	var resp struct {
		Relations []wireRelation `json:"relations"`
	}
	if err := json.Unmarshal(out, &resp); err != nil {
		return fmt.Errorf("decode /query: %w", err)
	}
	rels := map[string]*value.Relation{}
	for _, w := range resp.Relations {
		if rels[w.Name], err = decodeRelation(w); err != nil {
			return err
		}
	}
	return checkServe(rels["items"], rels["owners"], rels["luxury"], rels["owned"], expect)
}

func setServerLayers(r *report, tap *serverTap, spans []span) {
	tap.mu.Lock()
	r.setLatency(r.layers, "server.exec_ms", tap.exec, 50)
	r.setLatency(r.layers, "server.read_ms", tap.read, 50)
	r.setLatency(r.layers, "server.stats_ms", tap.stats, 50)
	if tap.readCnt > 0 {
		r.setLayer("server.read_bytes", float64(tap.readBytes)/float64(tap.readCnt))
	}
	tap.mu.Unlock()
	byID := map[uint64]span{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "client.") {
			byID[s.ID] = s
		}
	}
	var overhead samples
	for _, s := range spans {
		if c, ok := byID[s.Parent]; ok && strings.HasPrefix(s.Name, "server.") {
			overhead.add(time.Duration((c.End - c.Start) - (s.End - s.Start)))
		}
	}
	r.setLatency(r.layers, "http.client_overhead_ms", overhead, 50)
}

func setBatchLayers(r *report, a, b engine.BatcherStats, elapsed time.Duration) {
	flushes := b.Flushes - a.Flushes
	r.setLayer("engine.flushes_per_s", float64(flushes)/elapsed.Seconds())
	if flushes > 0 {
		r.setLayer("engine.txns_per_flush", float64(b.FlushedTxns-a.FlushedTxns)/float64(flushes))
	}
}

func setWALLayers(r *report, w walFigures, elapsed time.Duration, txns int) {
	r.setLatency(r.layers, "wal.fsync_ms", w.syncs, 50)
	r.setLayer("wal.fsync_busy_frac", w.syncs.sum()/float64(elapsed.Milliseconds()))
	if txns > 0 {
		r.setLayer("wal.bytes_per_txn", float64(w.walBytes)/float64(txns))
	}
	r.setLayer("wal.checkpoints", float64(len(w.ckpts)))
	if len(w.ckpts) > 0 {
		r.layers["wal.checkpoint_ms"] = measure{V: w.ckpts.percentile(50), N: len(w.ckpts), Note: "median"}
		r.setLayer("wal.checkpoint_bytes", float64(w.ckptBytes)/float64(len(w.ckpts)))
	} else {
		none := measure{V: math.NaN(), Note: "no automatic checkpoint fell in the run"}
		r.layers["wal.checkpoint_ms"], r.layers["wal.checkpoint_bytes"] = none, none
	}
}
