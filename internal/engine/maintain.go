package engine

import (
	"sort"

	"birds/internal/datalog"
	"birds/internal/eval"
)

// This file wires the evaluator's counting-based IVM (eval.EvalDelta) into
// the engine's write path: DML against base tables (and the source deltas a
// view update cascades into them) feed net row deltas straight into every
// clean dependent view, so steady-state writes cost O(|Δ|) instead of the
// O(|DB|) full rematerialization the dirty flag used to force on the next
// read. Bulk loads take the same path. The dirty flag remains as the
// fallback — maintenance errors and stale sources still mark a view dirty
// and refresh() fully recomputes it on the next read.
//
// The per-write bookkeeping is O(registered views): the dependency order
// and the predicate-overlap lists are precomputed at registration
// (registerMaintenance), not rebuilt per transaction.

// registerMaintenance precomputes the maintenance structures after a view
// is successfully registered: the dependency-ordered view list and the
// predicate-overlap lists driving cross-view IVM invalidation. Both depend
// only on the set of registered views, which changes only here. Must run
// under the write lock.
func (db *DB) registerMaintenance(v *View) {
	for _, w := range db.views {
		if w == v {
			continue
		}
		if predsIntersect(v.getIDB, w.getIDB) {
			v.getOverlap = append(v.getOverlap, w)
			w.getOverlap = append(w.getOverlap, v)
		}
		if predsIntersect(w.getIDB, v.allIDB) {
			v.allOverlap = append(v.allOverlap, w)
		}
		if predsIntersect(v.getIDB, w.allIDB) {
			w.allOverlap = append(w.allOverlap, v)
		}
	}

	db.rebuildViewOrder()
}

// rebuildViewOrder recomputes the dependency-ordered view list: topological
// order over view sources, ties broken by name. Must run under the write
// lock.
func (db *DB) rebuildViewOrder() {
	names := make([]string, 0, len(db.views))
	for n := range db.views {
		names = append(names, n)
	}
	sort.Strings(names)
	seen := make(map[string]bool, len(names))
	order := make([]string, 0, len(names))
	var visit func(n string)
	visit = func(n string) {
		w, ok := db.views[n]
		if !ok || seen[n] {
			return
		}
		seen[n] = true
		for _, s := range w.sources {
			visit(s)
		}
		order = append(order, n)
	}
	for _, n := range names {
		visit(n)
	}
	db.viewOrder = order
}

// unregisterMaintenance reverses registerMaintenance for a view whose
// registration is being rolled back (a failed DDL checkpoint must not leave
// a view the durable catalog does not know): it strips v from every
// sibling's overlap lists and rebuilds the dependency order. Must run under
// the write lock, after v was removed from db.views.
func (db *DB) unregisterMaintenance(v *View) {
	drop := func(list []*View) []*View {
		out := list[:0]
		for _, w := range list {
			if w != v {
				out = append(out, w)
			}
		}
		return out
	}
	for _, w := range db.views {
		w.getOverlap = drop(w.getOverlap)
		w.allOverlap = drop(w.allOverlap)
	}
	db.rebuildViewOrder()
}

// maintainViews propagates the net deltas of changed relations into the
// registered views, in dependency order. A clean view whose sources changed
// is maintained incrementally through its get evaluator's counting IVM —
// its materialization, auxiliary relations and indexes are adjusted in
// place, and its own net delta joins the changed set so views stacked on
// top of it are maintained the same way. Views in keep were updated exactly
// by the caller (the putback plan of a view-targeted transaction) and are
// only consulted for their recorded deltas. commitLocked is the only
// caller. Fallbacks:
//
//   - a view that is already dirty stays dirty (its counts may not match
//     the store; the next read fully rematerializes it);
//   - a view with a dirty source goes dirty (its input is unknown);
//   - a maintenance error marks the view dirty and drops its counts.
//
// Views none of whose sources changed — including sources whose transaction
// produced a net-empty delta — are skipped outright and stay clean.
// maintainViews must run under the write lock.
func (db *DB) maintainViews(changed map[string]eval.Delta, keep map[string]bool) {
	for _, name := range db.viewOrder {
		if keep[name] {
			continue // maintained exactly by the caller's plan
		}
		if db.dirty[name] {
			continue // stays dirty; refresh() handles it on the next read
		}
		v := db.views[name]
		srcChanged, srcDirty := false, false
		for _, s := range v.sources {
			if db.dirty[s] {
				srcDirty = true
			}
			if d, ok := changed[s]; ok && !d.Empty() {
				srcChanged = true
			}
		}
		if srcDirty {
			db.dirty[name] = true
			continue
		}
		if !srcChanged {
			continue // net-empty delta: nothing to do, view stays clean
		}
		edb := make(map[datalog.PredSym]eval.Delta, len(v.sources))
		for _, s := range v.sources {
			if d, ok := changed[s]; ok {
				edb[datalog.Pred(s)] = d
			}
		}
		out, err := v.getEval.EvalDelta(db.store, edb)
		if err != nil {
			v.getEval.InvalidateIVM()
			db.dirty[name] = true
			continue
		}
		// The call rewrote this view's get-program relations (propagation
		// or re-init); a sibling whose get program shares an auxiliary
		// predicate name now holds counts for a relation this view owns.
		// Normally getOverlap is empty and this is a no-op; on collision
		// the sibling re-initializes on its next maintenance.
		for _, w := range v.getOverlap {
			w.getEval.InvalidateIVM()
		}
		if d, ok := out[datalog.Pred(name)]; ok && !d.Empty() {
			changed[name] = d
		}
	}
}

// invalidateForStrategyRun is called before a view's putback machinery
// (strategy, ∂put, delta constraints) evaluates over the shared store: the
// run overwrites the IDB relations of those programs, so the view's own
// get counts — and those of any view whose get program shares a predicate
// name with any of this view's programs — are no longer trustworthy.
func (db *DB) invalidateForStrategyRun(v *View) {
	v.getEval.InvalidateIVM()
	for _, w := range v.allOverlap {
		w.getEval.InvalidateIVM()
	}
}

// predsIntersect reports whether two predicate sets share an element.
func predsIntersect(a, b map[datalog.PredSym]bool) bool {
	if len(b) < len(a) {
		a, b = b, a
	}
	for p := range a {
		if b[p] {
			return true
		}
	}
	return false
}

// idbPredsOf collects the non-constraint rule head predicates of a program.
func idbPredsOf(prog *datalog.Program, into map[datalog.PredSym]bool) {
	for _, r := range prog.Rules {
		if !r.IsConstraint() {
			into[r.Head.Pred] = true
		}
	}
}
