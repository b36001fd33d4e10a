package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"birds/internal/datalog"
	"birds/internal/value"
)

// Differential harness for the streaming executor (stream.go): streaming
// execution must agree with the naive reference evaluator over the
// random-program corpus; the counted-IVM initialization must produce
// exactly the support counts that delta propagation reaches from an empty
// database; and the streaming path's per-output-tuple allocation budget is
// pinned so lazy pipelines never regress into per-probe allocations.

// TestStreamingModesMatchReferenceFuzz generates random well-formed
// programs and EDBs and asserts streaming ≡ reference.
func TestStreamingModesMatchReferenceFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	const programs, trials = 15, 3
	for pi := 0; pi < programs; pi++ {
		src := genProgram(rng)
		prog := mustProg(t, src)
		ev, err := New(prog)
		if err != nil {
			t.Fatalf("program %d does not compile (generator bug):\n%s\n%v", pi, src, err)
		}
		for trial := 0; trial < trials; trial++ {
			db := genEDB(rng)
			want := refEval(t, prog, db)
			got := db.Clone()
			if err := ev.Eval(got); err != nil {
				t.Fatalf("program %d trial %d: %v\n%s", pi, trial, err, src)
			}
			for sym := range prog.IDBPreds() {
				w, g := want.Rel(sym), got.Rel(sym)
				if (g == nil) != (w == nil) || (g != nil && !g.Equal(w)) {
					t.Fatalf("program %d trial %d: %s differs from reference\ngot=%v\nref=%v\nprogram:\n%s\nEDB:\n%s",
						pi, trial, sym, g, w, src, db)
				}
			}
		}
	}
}

// TestStreamingCorpusModesMatch runs the hand-shaped corpus (joins,
// negation, constants, comparisons, equality binding, unions) through the
// streaming executor against the reference.
func TestStreamingCorpusModesMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for pi, src := range referenceCorpus {
		prog := mustProg(t, src)
		ev, err := New(prog)
		if err != nil {
			t.Fatal(err)
		}
		edb := map[string]int{}
		for _, s := range prog.Sources {
			edb[s.Name] = s.Arity()
		}
		edb[prog.View.Name] = prog.View.Arity()
		for trial := 0; trial < 10; trial++ {
			db := NewDatabase()
			for name, arity := range edb {
				rel := value.NewRelation(arity)
				for i := 0; i < rng.Intn(6); i++ {
					tu := make(value.Tuple, arity)
					for j := range tu {
						tu[j] = value.Int(int64(rng.Intn(4)))
					}
					rel.Add(tu)
				}
				db.Set(datalog.Pred(name), rel)
			}
			want := refEval(t, prog, db)
			got := db.Clone()
			if err := ev.Eval(got); err != nil {
				t.Fatal(err)
			}
			assertSameIDB(t, prog, got, want, fmt.Sprintf("corpus %d trial %d", pi, trial))
		}
	}
}

// assertSameCounts fails unless the two evaluators hold bit-identical
// support counts: the same tuples with the same counts for every IDB
// predicate.
func assertSameCounts(t *testing.T, prog *datalog.Program, a, b *Evaluator, label string) {
	t.Helper()
	if a.ivm == nil || b.ivm == nil {
		t.Fatalf("%s: missing IVM state (a=%v b=%v)", label, a.ivm != nil, b.ivm != nil)
	}
	for sym := range prog.IDBPreds() {
		ca, cb := a.ivm.counts[sym], b.ivm.counts[sym]
		if (ca == nil) != (cb == nil) {
			t.Fatalf("%s: counts for %s present=%v vs %v", label, sym, ca != nil, cb != nil)
		}
		if ca == nil {
			continue
		}
		ca.Each(func(tu value.Tuple, n int) {
			if got := cb.Count(tu); got != n {
				t.Errorf("%s: support of %s%v = %d vs %d", label, sym, tu, n, got)
			}
		})
		cb.Each(func(tu value.Tuple, n int) {
			if got := ca.Count(tu); got != n {
				t.Errorf("%s: support of %s%v = %d vs %d", label, sym, tu, got, n)
			}
		})
	}
}

// TestStreamingCountedInitCountsIdentical pins the counted-IVM
// initialization: the IDB relations it installs must equal the reference
// evaluation, its reported deltas must be the whole IDB (the database starts
// without IDB relations), and its support counts must be exactly the counts
// EvalDelta reaches by inserting the whole EDB into an empty database — an
// independent route through the delta rules rather than the full-evaluation
// plans.
func TestStreamingCountedInitCountsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99177))
	corpus := append([]string{}, referenceCorpus...)
	for i := 0; i < 8; i++ {
		corpus = append(corpus, genProgram(rng))
	}
	for pi, src := range corpus {
		prog := mustProg(t, src)
		for trial := 0; trial < 3; trial++ {
			db := genEDB(rng)
			// Corpus programs may use sources outside genEDB's trio.
			for _, s := range prog.Sources {
				if db.Rel(datalog.Pred(s.Name)) == nil {
					rel := value.NewRelation(s.Arity())
					for i := 0; i < rng.Intn(6); i++ {
						tu := make(value.Tuple, s.Arity())
						for j := range tu {
							tu[j] = value.Int(int64(rng.Intn(4)))
						}
						rel.Add(tu)
					}
					db.Set(datalog.Pred(s.Name), rel)
				}
			}
			if db.Rel(datalog.Pred(prog.View.Name)) == nil {
				db.Set(datalog.Pred(prog.View.Name), value.NewRelation(prog.View.Arity()))
			}
			want := refEval(t, prog, db)
			idb := prog.IDBPreds()
			label := fmt.Sprintf("program %d trial %d", pi, trial)
			evInit, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}
			dbI := db.Clone()
			outI, err := evInit.EvalDelta(dbI, nil)
			if err != nil {
				t.Fatalf("%s: init: %v\n%s", label, err, src)
			}
			assertSameIDB(t, prog, dbI, want, label)
			for sym := range idb {
				w := want.Rel(sym)
				d, ok := outI[sym]
				if w == nil || w.Empty() {
					if ok {
						t.Fatalf("%s: init reported a delta for empty %s", label, sym)
					}
					continue
				}
				if !ok || !d.Ins.Equal(w) || !d.Del.Empty() {
					t.Fatalf("%s: init delta for %s is not the whole relation", label, sym)
				}
			}

			// The same EDB reached incrementally: counted init over
			// empty EDB relations, then one EvalDelta inserting them.
			evInc, err := New(prog)
			if err != nil {
				t.Fatal(err)
			}
			dbE := NewDatabase()
			edb := make(map[datalog.PredSym]Delta)
			for _, sym := range db.Preds() {
				if idb[sym] {
					continue
				}
				rel := db.Rel(sym)
				dbE.Set(sym, value.NewRelation(rel.Arity()))
				edb[sym] = Delta{Ins: rel.Clone(), Del: value.NewRelation(rel.Arity())}
			}
			if _, err := evInc.EvalDelta(dbE, nil); err != nil {
				t.Fatalf("%s: empty init: %v\n%s", label, err, src)
			}
			for sym, d := range edb {
				d.Ins.Each(func(tu value.Tuple) { dbE.Insert(sym, tu) })
			}
			if _, err := evInc.EvalDelta(dbE, edb); err != nil {
				t.Fatalf("%s: delta insert: %v\n%s", label, err, src)
			}
			assertSameIDB(t, prog, dbE, want, label+" (incremental)")
			assertSameCounts(t, prog, evInit, evInc, label)
		}
	}
}

// TestStreamingPerTupleAllocBudget pins the streaming path's allocation
// profile on a join-heavy evaluation: the per-output-tuple cost is the head
// tuple plus set-insertion bookkeeping — a small constant. A regression
// that allocates per probe (a closure or key copy in the inner join loop)
// multiplies the ratio and trips the guard.
func TestStreamingPerTupleAllocBudget(t *testing.T) {
	prog := mustProg(t, `
source fact(a:int, b:int).
source dim(b:int, c:int).
view v(a:int).
out(X,Z) :- dim(Y,Z), fact(X,Y).
`)
	ev, err := New(prog)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	const nFact, nDim = 20000, 200
	fact := value.NewRelation(2)
	for i := 0; i < nFact; i++ {
		fact.Add(value.Tuple{value.Int(int64(i)), value.Int(int64(i % nDim))})
	}
	dim := value.NewRelation(2)
	for k := 0; k < nDim; k++ {
		dim.Add(value.Tuple{value.Int(int64(k)), value.Int(int64(k * 7))})
	}
	db.Set(datalog.Pred("fact"), fact)
	db.Set(datalog.Pred("dim"), dim)

	if err := ev.Eval(db); err != nil { // warm plans and envs
		t.Fatal(err)
	}
	out := db.Rel(datalog.Pred("out"))
	if out == nil || out.Len() != nFact {
		t.Fatalf("join produced %v tuples, want %d", out, nFact)
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := ev.Eval(db); err != nil {
			t.Fatal(err)
		}
	})
	// Budget: head tuple + relation insertion, plus the evaluation's fixed
	// overhead (ephemeral dim table, output relation growth) amortized over
	// 20k outputs. Comfortably above the measured steady state, far below
	// the 1-per-probe regression this guards against.
	const budget = 8.0
	if perTuple := allocs / nFact; perTuple > budget {
		t.Errorf("streaming Eval allocates %.2f objects per output tuple (%.0f total), budget %.1f",
			perTuple, allocs, budget)
	}
}
