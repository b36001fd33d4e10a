package bench

import (
	"fmt"
	"runtime"
	"testing"

	"birds/internal/datalog"
	"birds/internal/eval"
	"birds/internal/value"
)

// Peak-memory benchmarks for the execution core: full evaluation and the
// counted-IVM initialization, measured with MeasureHeapPeak. The reported
// peak-MB is the evaluation's working overhead — peak heap above the
// resident base EDB — which the streaming executor keeps small by hashing
// only the small build sides into ephemeral tables instead of registering
// maintained hash indexes on the probed (large) relations; live-MB is what
// the evaluation leaves resident (the installed IDB relations and, for the
// init, the support counts). BENCH_mem.json at the repo root is the
// committed baseline of this sweep.

// joinHeavyProgram probes the fact table two ways: a fan-out join keyed on
// the non-unique column (the materialized path indexes all of fact by b)
// and a point-lookup join keyed on the unique column (an index with one
// group per fact tuple — the worst case for index heap). Outputs are kept
// small by selective filters/small drivers, so what the measurement
// shows is execution overhead, not output size.
const joinHeavyProgram = `
source fact(a:int, b:int).
source dim(b:int, c:int).
source keys(a:int).
view v(a:int).
wide(X,Z) :- dim(Y,Z), fact(X,Y), Z < %d.
point(Y) :- keys(X), fact(X,Y).
`

// negationHeavyProgram guards a scan of dim with an anti-join against fact
// on its non-unique column: a maintained index on fact would hold every
// fact tuple; streaming builds an existTable with one representative tuple
// per distinct key.
const negationHeavyProgram = `
source fact(a:int, b:int).
source dim(b:int, c:int).
view v(a:int).
fresh(Y,Z) :- dim(Y,Z), not fact(_,Y).
`

// memJoinDB builds the join-heavy EDB: n facts with b fanning out over
// n/16 distinct values, a dim table over those values, and a sparse key
// set hitting 1% of the unique fact column.
func memJoinDB(n int) *eval.Database {
	db := eval.NewDatabase()
	nDim := n / 16
	fact := value.NewRelation(2)
	for i := 0; i < n; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nDim))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nDim; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 7))})
	}
	keys := value.NewRelation(1)
	for k := 0; k < n/100; k++ {
		keys.Add(value.Tuple{value.Int(int64(k * 100))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)
	db.Set(datalog.Pred("keys"), keys)
	return db
}

// memJoinProg renders the join program with its selectivity threshold: the
// Z < t filter passes ~1% of dim.
func memJoinProg(n int) string {
	return fmt.Sprintf(joinHeavyProgram, (n/16)*7/100)
}

// memNegDB builds the negation-heavy EDB: dim ranges over 10% more key
// values than fact covers, so the anti-join keeps a small output.
func memNegDB(n int) *eval.Database {
	db := eval.NewDatabase()
	nKeys := n / 16
	fact := value.NewRelation(2)
	for i := 0; i < n; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nKeys))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nKeys+nKeys/10; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 3))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)
	return db
}

type memShape struct {
	name string
	prog func(n int) string
	edb  func(n int) *eval.Database
}

var memShapes = []memShape{
	{"join", memJoinProg, memJoinDB},
	{"neg", func(int) string { return negationHeavyProgram }, memNegDB},
}

// memSizes sweeps the base-table size from 10k to 1.6M tuples — the top
// size 4× the largest base any previous benchmark evaluated.
var memSizes = []int{10_000, 100_000, 400_000, 1_600_000}

func memProgOf(t testing.TB, src string) *datalog.Program {
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// measureEval runs one full evaluation of shape at size n over a fresh
// database and returns the heap measurement. init selects the counted-IVM
// initialization (EvalDelta's first call) instead of a plain Eval.
func measureEval(t testing.TB, shape memShape, n int, init bool) HeapStats {
	prog := memProgOf(t, shape.prog(n))
	ev, err := eval.New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := shape.edb(n)
	st := MeasureHeapPeak(func() {
		if init {
			if _, err := ev.EvalDelta(db, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := ev.Eval(db); err != nil {
				t.Fatal(err)
			}
		}
	})
	// The evaluated database (and the evaluator's support counts) must
	// still be reachable at the sampler's final GC, or live-MB reads the
	// base EDB as freed.
	runtime.KeepAlive(db)
	runtime.KeepAlive(ev)
	return st
}

// BenchmarkEvalMemory sweeps (shape × size) for full evaluation and
// (join × size) for the counted init, reporting the peak working overhead
// and the durable live overhead in MB alongside wall time.
func BenchmarkEvalMemory(b *testing.B) {
	report := func(b *testing.B, shape memShape, n int, init bool) {
		for i := 0; i < b.N; i++ {
			st := measureEval(b, shape, n, init)
			b.ReportMetric(float64(st.PeakOverhead())/1e6, "peak-MB")
			b.ReportMetric(float64(st.LiveOverhead())/1e6, "live-MB")
		}
	}
	for _, shape := range memShapes {
		for _, n := range memSizes {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				report(b, shape, n, false)
			})
		}
	}
	for _, n := range memSizes {
		b.Run(fmt.Sprintf("init/n=%d", n), func(b *testing.B) {
			report(b, memShapes[0], n, true)
		})
	}
}

// TestMeasureHeapPeakObservesAllocation sanity-checks the sampler: an
// operation holding a 64 MB slice must show up in Peak, and must be gone
// from Live after it is dropped.
func TestMeasureHeapPeakObservesAllocation(t *testing.T) {
	var hold []byte
	st := MeasureHeapPeak(func() {
		hold = make([]byte, 64<<20)
		for i := 0; i < len(hold); i += 4096 {
			hold[i] = byte(i)
		}
		hold = nil
	})
	if got := st.PeakOverhead(); got < 60<<20 {
		t.Errorf("peak overhead %d bytes, want >= 60MB", got)
	}
	if got := st.LiveOverhead(); got > 8<<20 {
		t.Errorf("live overhead %d bytes after dropping the slice, want < 8MB", got)
	}
}

// materializedJoinPeakMB is the peak working overhead of the join-heavy
// evaluation at n=400k under the index-everything executor that streaming
// replaced, as committed in BENCH_mem.json before that executor was
// removed (Intel Xeon @ 2.70GHz, linux/amd64).
const materializedJoinPeakMB = 81.95

// TestStreamingPeakReduction enforces the headline claim at a mid-size
// base: streaming full evaluation of the join-heavy program must peak at
// least 40% below the materialized executor's recorded peak. (The committed
// BENCH_mem.json records the full sweep including the 1.6M top size.)
func TestStreamingPeakReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("memory measurement sweep")
	}
	const n = 400_000
	stream := measureEval(t, memShapes[0], n, false)
	sp := float64(stream.PeakOverhead()) / 1e6
	t.Logf("n=%d: streaming peak overhead %.1f MB (materialized: %.2f MB)", n, sp, materializedJoinPeakMB)
	if limit := 0.6 * materializedJoinPeakMB; sp > limit {
		t.Errorf("streaming peak overhead %.1f MB exceeds %.1f MB (40%% below materialized %.2f MB)",
			sp, limit, materializedJoinPeakMB)
	}
}
