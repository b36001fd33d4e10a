package main

import (
	"fmt"
	"time"

	"birds/internal/analysis"
	"birds/internal/bench"
	"birds/internal/core"
	"birds/internal/datalog"
	"birds/internal/engine"
)

// installer creates updatable views. Untraced, it makes the one call a user
// makes, db.CreateView with validation on. Traced, it splits that call into
// its public steps — datalog.Parse, analysis.Classify, core.NewPutback,
// core.Validate, core.Incrementalize, and db.CreateViewFromProgram with the
// validated get supplied — and times each one.
type installer struct {
	tr                                       *tracer
	parse, classify, validate, incr, install samples
}

func (in *installer) create(db *engine.DB, src, expectedGet string, incremental bool) error {
	if in.tr == nil {
		get, err := bench.ParseGetRules(expectedGet)
		if err != nil {
			return err
		}
		_, err = db.CreateView(src, engine.ViewOptions{ExpectedGet: get, Incremental: incremental})
		return err
	}
	root := in.tr.id()
	t0 := time.Now()
	step := func(name string, into *samples, fn func() error) error {
		start := time.Now()
		err := fn()
		end := time.Now()
		into.add(end.Sub(start))
		in.tr.record(0, name, root, root, start, end)
		return err
	}
	var (
		prog *datalog.Program
		get  []*datalog.Rule
		pb   *core.Putback
		res  *core.Result
	)
	err := step("datalog.parse", &in.parse, func() (err error) {
		if prog, err = datalog.Parse(src); err != nil {
			return err
		}
		get, err = bench.ParseGetRules(expectedGet)
		return err
	})
	if err == nil {
		err = step("analysis.classify", &in.classify, func() error { analysis.Classify(prog); return nil })
	}
	if err == nil {
		var discard samples
		err = step("core.new_putback", &discard, func() (err error) { pb, err = core.NewPutback(prog); return err })
	}
	if err == nil {
		err = step("core.validate", &in.validate, func() (err error) {
			if res, err = core.Validate(pb, get, core.DefaultOptions()); err == nil && !res.Valid {
				err = fmt.Errorf("invalid update strategy for view %q: %w", prog.View.Name, res.Failure)
			}
			return err
		})
	}
	if err == nil && incremental {
		err = step("core.incrementalize", &in.incr, func() error { _, err := core.Incrementalize(prog); return err })
	}
	if err == nil {
		err = step("engine.install", &in.install, func() error {
			_, err := db.CreateViewFromProgram(prog, engine.ViewOptions{ExpectedGet: res.Get, SkipValidation: true, Incremental: incremental})
			return err
		})
	}
	in.tr.record(root, "bench.create_view", 0, root, t0, time.Now())
	return err
}

// setLayers reports the install split as per-layer metrics.
func (in *installer) setLayers(r *report) {
	r.setLayer("datalog.parse_ms", in.parse.sum())
	r.setLayer("analysis.classify_ms", in.classify.sum())
	r.setLayer("core.validate_ms", in.validate.sum())
	r.setLayer("core.validate_max_ms", in.validate.max())
	r.setLayer("core.incrementalize_ms", in.incr.sum())
	r.setLayer("engine.install_ms", in.install.sum())
}
