// Parallel delta propagation and sharded counted initialization for the
// counting IVM (ivm.go), reusing the level scheduler discipline of
// parallel.go: predicates of one DAG level are independent, so a level's
// delta rules (or counted init rules) can run concurrently after a serial
// prepare phase resolves every index the workers will probe. Workers only
// read the database (hashIndex.lookup and Relation iteration are pure) and
// adjust per-predicate private state — support counts and partial
// relations — which the barrier then applies serially in level order, so
// parallel propagation produces byte-for-byte the deltas, counts and
// relations of the sequential path (ivm_test.go pins this differentially).
//
// Both paths gate on parallelMinWork: a steady-state single-transaction
// delta (a handful of tuples) stays on the sequential path and keeps its
// allocation profile; only wide coalesced batches — the group-commit write
// pipeline of the engine — and bulk counted inits fan out.
package eval

import (
	"birds/internal/datalog"
	"birds/internal/value"
)

// evalDeltaLevelParallel propagates one level's delta rules with up to
// e.parallelism workers, one task per predicate (a predicate's rules adjust
// its private support counts, so the predicate is the finest safe grain).
// Net deltas are applied at the barrier, serially, in level order.
func (e *Evaluator) evalDeltaLevelParallel(dc *deltaCtx, level []datalog.PredSym, out map[datalog.PredSym]Delta) error {
	// Serial prepare: resolve every index an applicable delta rule may
	// probe, so the parallel phase never mutates the database.
	active := level[:0:0]
	for _, sym := range level {
		applicable := false
		for _, dr := range e.deltaRules[sym] {
			if _, ok := dc.changed[dr.driver]; ok {
				dr.prepare(dc.db)
				applicable = true
			}
		}
		if applicable {
			active = append(active, sym)
		}
	}
	if len(active) == 0 {
		return nil
	}
	defer func() {
		for _, sym := range active {
			for _, dr := range e.deltaRules[sym] {
				dr.reset()
			}
		}
	}()

	inss := make([]*value.Relation, len(active))
	dels := make([]*value.Relation, len(active))
	errs := make([]error, len(active))
	runTasks(e.parallelism, len(active), func(i int) {
		inss[i], dels[i], errs[i] = e.deltaForPred(dc, active[i])
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, sym := range active {
		e.applyPredDelta(dc, sym, inss[i], dels[i], out)
	}
	return nil
}

// initIVMParallel is initIVM with the counted full evaluation of each level
// fanned out: rules are prepared serially (read-only probe contexts, as in
// evalParallel), the outer scan of a large rule is sharded across workers,
// and each task counts derivations into a private CountedRelation; the
// barrier merges the partial counts per predicate (support counts are sums
// over disjoint derivation sets, so the merge is order-independent) and
// installs the materialized relations in level order.
func (e *Evaluator) initIVMParallel(db *Database) (map[datalog.PredSym]Delta, error) {
	ec := newEvalCtx()
	counts := make(map[datalog.PredSym]*value.CountedRelation, len(e.order))
	out := make(map[datalog.PredSym]Delta)
	for _, level := range e.levels {
		weight := 0
		for _, sym := range level {
			for _, cr := range e.rules[sym] {
				weight += cr.outerWeight(db)
			}
		}
		if weight < parallelMinWork {
			for _, sym := range level {
				cnt := value.NewCounted(e.arities[sym])
				rel := value.NewRelation(e.arities[sym])
				for _, cr := range e.rules[sym] {
					if err := runStreaming(db, ec, cr, func(t value.Tuple) bool {
						if appeared, _ := cnt.Adjust(t, 1); appeared {
							rel.Add(t)
						}
						return true
					}); err != nil {
						return nil, err
					}
				}
				e.installCounted(db, sym, rel, out)
				counts[sym] = cnt
			}
			continue
		}

		// Serial prepare, then one task per (rule, shard) counting into a
		// private partial.
		type initTask struct {
			cr        *compiledRule
			rc        *runCtx
			out       *value.CountedRelation
			shardStep int
			shard     int
			nshards   int
		}
		var tasks []initTask
		partials := make([][]*value.CountedRelation, len(level))
		for si, sym := range level {
			arity := e.arities[sym]
			for _, cr := range e.rules[sym] {
				plan, rc := cr.preparePlan(db, ec)
				shardStep, nshards := plan.shardPlan(rc, e.parallelism)
				for s := 0; s < nshards; s++ {
					partial := value.NewCounted(arity)
					partials[si] = append(partials[si], partial)
					tasks = append(tasks, initTask{
						cr: plan, rc: rc, out: partial,
						shardStep: shardStep, shard: s, nshards: nshards,
					})
				}
			}
		}
		errs := make([]error, len(tasks))
		runTasks(e.parallelism, len(tasks), func(ti int) {
			t := &tasks[ti]
			en := t.cr.newEnv()
			en.shardStep, en.shard, en.nshards = t.shardStep, t.shard, t.nshards
			_, errs[ti] = t.cr.exec(t.rc, en, 0, func(tu value.Tuple) bool {
				t.out.Adjust(tu, 1)
				return true
			})
		})
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		// Barrier merge: sum the partial counts per predicate. Each
		// derivation was counted by exactly one task (shards partition the
		// outer scan), so summed counts equal the sequential counts.
		for si, sym := range level {
			cnt := value.NewCounted(e.arities[sym])
			rel := value.NewRelation(e.arities[sym])
			for _, partial := range partials[si] {
				partial.Each(func(t value.Tuple, n int) {
					if appeared, _ := cnt.Adjust(t, n); appeared {
						rel.Add(t)
					}
				})
			}
			e.installCounted(db, sym, rel, out)
			counts[sym] = cnt
		}
	}
	e.ivm = &ivmState{db: db, counts: counts}
	return out, nil
}
