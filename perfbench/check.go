package main

import (
	"fmt"

	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/eval"
	"birds/internal/value"
)

// checkServe verifies serve-mixed's final atomic read: luxury is
// σ_{price>1000}(items), owned is items ⋈ owners, and the hot rows in
// items (iid ≥ hotBase) are exactly the rows the sessions' last acked
// writes and view updates left. A nil expect skips the last check.
func checkServe(items, owners, luxury, owned *value.Relation, expect []value.Tuple) error {
	if items == nil || owners == nil || luxury == nil || owned == nil {
		return fmt.Errorf("serve check: /query did not return all four relations")
	}
	wantLux := value.NewRelation(4)
	wantOwned := value.NewRelation(5)
	names := map[int64]value.Value{}
	owners.Each(func(t value.Tuple) { names[t[0].AsInt()] = t[1] })
	hot := value.NewRelation(4)
	items.Each(func(t value.Tuple) {
		if t[2].AsInt() > luxuryMin {
			wantLux.Add(t)
		}
		if n, ok := names[t[3].AsInt()]; ok {
			wantOwned.Add(append(t.Clone(), n))
		}
		if t[0].AsInt() >= hotBase {
			hot.Add(t)
		}
	})
	if !luxury.Equal(wantLux) {
		return fmt.Errorf("serve check: luxury has %d rows, σ_{price>%d}(items) has %d (or they differ)", luxury.Len(), luxuryMin, wantLux.Len())
	}
	if !owned.Equal(wantOwned) {
		return fmt.Errorf("serve check: owned has %d rows, items ⋈ owners has %d (or they differ)", owned.Len(), wantOwned.Len())
	}
	if expect != nil && !hot.Equal(value.RelationOf(4, expect...)) {
		return fmt.Errorf("serve check: items holds hot rows %v, the acked writes left %v", hot.Sorted(), expect)
	}
	return nil
}

// checkMirrors verifies that every subscriber's folded mirror equals the
// live view and that no commit failed.
func checkMirrors(live *value.Relation, mirrors []*value.Relation, commitErrs int) error {
	if commitErrs > 0 {
		return fmt.Errorf("ingest check: %d commits resolved with an error", commitErrs)
	}
	for i, m := range mirrors {
		if m == nil || !m.Equal(live) {
			n := -1
			if m != nil {
				n = m.Len()
			}
			return fmt.Errorf("ingest check: subscriber %d mirror has %d rows, luxury has %d (or they differ)", i, n, live.Len())
		}
	}
	return nil
}

// checkInstalled verifies phase A's outcome: the expected number of
// strategies validated and every non-expressible one was reported so.
func checkInstalled(installed, wantInstalled int, notExpressible, wantNotExpressible []string) error {
	if installed != wantInstalled {
		return fmt.Errorf("lifecycle check: %d Table 1 strategies validated and installed, want %d", installed, wantInstalled)
	}
	if fmt.Sprint(notExpressible) != fmt.Sprint(wantNotExpressible) {
		return fmt.Errorf("lifecycle check: reported not expressible %v, want %v", notExpressible, wantNotExpressible)
	}
	return nil
}

// checkViewsAgainstGet verifies that each named view's stored contents
// equal a fresh full evaluation of its get program over the current base
// tables — incremental maintenance and ∂put agree with recomputation.
func checkViewsAgainstGet(db *engine.DB, views []string) error {
	for _, name := range views {
		v := db.View(name)
		if v == nil {
			return fmt.Errorf("lifecycle check: view %q is not installed", name)
		}
		prog := core.GetProgram(v.Strategy.Prog, v.Get)
		ev, err := eval.New(prog)
		if err != nil {
			return fmt.Errorf("lifecycle check: get of %q: %w", name, err)
		}
		names := []string{name}
		for _, s := range prog.Sources {
			names = append(names, s.Name)
		}
		rels, err := db.GetAll(names...)
		if err != nil {
			return err
		}
		store := eval.NewDatabase()
		for _, s := range prog.Sources {
			store.Set(datalog.Pred(s.Name), rels[s.Name].Clone())
		}
		want, err := ev.EvalQuery(store, datalog.Pred(name))
		if err != nil {
			return fmt.Errorf("lifecycle check: evaluate get of %q: %w", name, err)
		}
		if !rels[name].Equal(want) {
			return fmt.Errorf("lifecycle check: view %q has %d rows, its get over the base has %d (or they differ)", name, rels[name].Len(), want.Len())
		}
	}
	return nil
}
