package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"birds/internal/bench"
	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/value"
)

// strategy-lifecycle: the paper's two experiments in one in-memory
// database. Phase A installs every Table 1 strategy and the four Figure 6
// panels with validation on; phase B runs Figure 6 view updates; a side
// writer paces writes to an unrelated table throughout.
const (
	fig6Rows = 100_000
	// sideRate is the side writer's fixed pace, writes per second.
	sideRate = 200
	// fig6WarmRounds are unmeasured: the first insert and delete of each
	// panel build the evaluator's hash indexes.
	fig6WarmRounds = 2
	// fig6MinRounds bounds phase B from below when phase A runs long:
	// six rounds give each panel twelve timed updates.
	fig6MinRounds = 6
	// wantTable1Valid is the number of Table 1 strategies the paper
	// reports as expressible and valid.
	wantTable1Valid = 31
)

// wantNotExpressible are the Table 1 views the paper reports as not
// expressible in NR-Datalog.
var wantNotExpressible = []string{"emp_view"}

var lifecycleShape = fmt.Sprintf("Table 1: %d expressible strategies over empty bases (relations prefixed per view); "+
	"Figure 6: 4 panels over %d-row bases; closed loop, 1 session of Figure 6 view updates in whole rounds; "+
	"side writer: open loop, %d writes/s; in memory, no WAL", wantTable1Valid, fig6Rows, sideRate)

// strategy is one view to install in phase A.
type strategy struct {
	name, src, get string
	incremental    bool
}

// prefixProgram renames every relation of a putback program (sources,
// view and auxiliaries) with prefix, so Table 1 strategies that share
// relation names can live in one database.
func prefixProgram(src, get, prefix string) (string, string, error) {
	prog, err := datalog.Parse(src)
	if err != nil {
		return "", "", err
	}
	rules, err := bench.ParseGetRules(get)
	if err != nil {
		return "", "", err
	}
	for _, s := range prog.Sources {
		s.Name = prefix + s.Name
	}
	prog.View.Name = prefix + prog.View.Name
	var getText []string
	for _, r := range append(prog.Rules, rules...) {
		if r.Head != nil {
			r.Head.Pred.Name = prefix + r.Head.Pred.Name
		}
		for _, l := range r.Body {
			if l.Atom != nil {
				l.Atom.Pred.Name = prefix + l.Atom.Pred.Name
			}
		}
	}
	for _, r := range rules {
		getText = append(getText, r.String())
	}
	return prog.String(), strings.Join(getText, "\n"), nil
}

type lifecycleFixture struct {
	db             *engine.DB
	table1         []strategy
	notExpressible []string
	panels         []bench.Fig6View
}

func buildLifecycle(seed int64) (*lifecycleFixture, error) {
	f := &lifecycleFixture{db: engine.NewDB(), panels: bench.Fig6Views()}
	for _, e := range bench.Table1() {
		if e.Program == "" {
			f.notExpressible = append(f.notExpressible, e.Name)
			continue
		}
		src, get, err := prefixProgram(e.Program, e.ExpectedGet, fmt.Sprintf("t%02d_", e.ID))
		if err != nil {
			return nil, fmt.Errorf("table 1 %s: %w", e.Name, err)
		}
		prog, err := datalog.Parse(src)
		if err != nil {
			return nil, fmt.Errorf("table 1 %s renamed: %w", e.Name, err)
		}
		for _, s := range prog.Sources {
			if err := f.db.CreateTable(s); err != nil {
				return nil, err
			}
		}
		f.table1 = append(f.table1, strategy{name: prog.View.Name, src: src, get: get, incremental: e.WantLVGN})
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range f.panels {
		if err := p.Setup(f.db, fig6Rows, rng); err != nil {
			return nil, fmt.Errorf("figure 6 %s: %w", p.Name, err)
		}
	}
	if err := createTable(f.db, "sidelog(k:int, v:int)."); err != nil {
		return nil, err
	}
	return f, nil
}

// sideWriter paces writes to sidelog: write i inserts row i and deletes
// row i-1, timed from its due time. Every write due before stopAt is
// issued, so a backlog built up behind the engine lock is drained and
// measured, not dropped.
type sideWriter struct {
	db     *engine.DB
	tr     *tracer
	rng    *rand.Rand
	stopAt atomic.Int64 // Unix ns; 0 while the run lasts

	lat, late         samples
	attempted, failed int
}

func (w *sideWriter) run(start time.Time) {
	more := func(due time.Time) bool {
		stop := w.stopAt.Load()
		return stop == 0 || due.UnixNano() < stop
	}
	w.late = newPacer(start, sideRate).run(more, func(i int, due time.Time) {
		stmts := []engine.Statement{engine.Insert("sidelog", value.Int(int64(i)), value.Int(int64(w.rng.Intn(1000))))}
		if i > 0 {
			stmts = append(stmts, engine.Delete("sidelog", engine.Eq("k", value.Int(int64(i-1)))))
		}
		id := w.tr.id()
		t0 := time.Now()
		err := w.db.Exec(stmts...)
		end := time.Now()
		w.tr.record(id, "engine.exec", 0, id, t0, end)
		w.attempted++
		if err != nil {
			w.failed++
			fmt.Fprintln(os.Stderr, "side writer:", err)
			return
		}
		w.lat.add(end.Sub(due))
	})
}

func runLifecycle(seed int64, seconds float64, tr *tracer) (*report, error) {
	r := newReport("strategy-lifecycle", seed)
	r.shape = lifecycleShape
	heap := watchHeap()
	f, setup, err := buildReplicas(func() (*lifecycleFixture, error) { return buildLifecycle(seed) }, func(*lifecycleFixture) {})
	if err != nil {
		heap.end()
		return nil, err
	}
	r.setE2E("setup_s", setup)
	in := &installer{tr: tr}
	side := &sideWriter{db: f.db, tr: tr, rng: rand.New(rand.NewSource(seed + 1))}

	runtime.GC() // start the measured run from a collected heap
	rt0 := readRuntime()
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		side.run(start)
	}()

	// Phase A: install every strategy, one after another.
	installed, failed := 0, 0
	var views []string
	for _, s := range f.table1 {
		if err := in.create(f.db, s.src, s.get, s.incremental); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "install %s: %v\n", s.name, err)
			continue
		}
		installed++
		views = append(views, s.name)
	}
	for _, p := range f.panels {
		if err := in.create(f.db, p.Program, p.ExpectedGet, true); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "install %s: %v\n", p.Name, err)
			continue
		}
		views = append(views, p.Name)
	}
	ddl := time.Since(start)

	// Phase B: whole rounds of Figure 6 view updates, one round touching
	// every panel, until the run's time is up.
	var updates samples
	perPanel := make([]samples, len(f.panels))
	attempted := len(f.table1) + len(f.panels)
	cpuB := cpuTime()
	phaseB := time.Now()
	measured := 0
	for round := 1; round <= fig6WarmRounds || measured < fig6MinRounds || time.Now().Before(end); round++ {
		for i, p := range f.panels {
			for _, txn := range p.Update(fig6Rows, round) {
				id := tr.id()
				t0 := time.Now()
				err := f.db.Exec(txn...)
				d := time.Since(t0)
				tr.record(id, "engine.exec", 0, id, t0, t0.Add(d))
				if round <= fig6WarmRounds {
					continue
				}
				attempted++
				if err != nil {
					failed++
					fmt.Fprintf(os.Stderr, "update %s: %v\n", p.Name, err)
					continue
				}
				updates.add(d)
				perPanel[i].add(d)
			}
		}
		if round > fig6WarmRounds {
			measured++
		}
	}
	phaseBElapsed := time.Since(phaseB)
	cpu := cpuTime() - cpuB
	side.stopAt.Store(time.Now().UnixNano())
	wg.Wait()
	rt1 := readRuntime()

	r.attempted = attempted + side.attempted
	r.failed = failed + side.failed
	r.setE2E("ddl_total_s", ddl.Seconds())
	r.setLatency(r.e2e, "write_p50_ms", side.lat, 50)
	r.setLatency(r.e2e, "write_p99_ms", side.lat, 99)
	// The panels' costs differ by up to 3×, so the pooled median would
	// fall between two panels' clusters and jump with their counts; the
	// mean of the per-panel medians weighs each panel equally and holds.
	var medians samples
	for _, s := range perPanel {
		medians = append(medians, s.percentile(50))
	}
	r.e2e["view_update_p50_ms"] = measure{V: medians.sum() / float64(len(medians)), N: len(updates), Note: "mean of the 4 panels' medians"}
	r.setLatency(r.e2e, "view_update_p90_ms", updates, 90)
	r.e2e["ops_per_s"] = measure{V: float64(len(updates)) / phaseBElapsed.Seconds(), Note: "phase B view updates per second"}
	r.setE2E("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	r.setOpCPU(cpu, len(updates), "process CPU of phase B per timed view update, warm-up rounds and side writes included")
	r.setLatency(r.layers, "bench.gen_late_p99_ms", side.late, 99)
	in.setLayers(r)
	r.setLayer("engine.stale_views", float64(staleViews(f.db)))
	r.setRuntime(rt0, rt1, len(updates)+side.attempted, heap.end())
	fmt.Printf("lifecycle: phase A %.2fs (%d Table 1 strategies, %d Figure 6 panels), phase B %.2fs (%d rounds, %d updates)\n",
		ddl.Seconds(), installed, len(f.panels), phaseBElapsed.Seconds(), measured, len(updates))

	r.checkErr = checkInstalled(installed, wantTable1Valid, f.notExpressible, wantNotExpressible)
	if r.checkErr == nil {
		r.checkErr = checkViewsAgainstGet(f.db, views)
	}
	return r, nil
}
