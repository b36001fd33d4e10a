package main

import "time"

// pacer issues operations on a fixed schedule regardless of how long each
// takes — an open loop. Operation i is due at start + i·interval; a caller
// times it from that due time, so a stall is charged to every operation it
// delays, not only to the one that stalled.
type pacer struct {
	start    time.Time
	interval time.Duration
	now      func() time.Time
	sleep    func(time.Duration)
}

func newPacer(start time.Time, perSecond float64) pacer {
	return pacer{start: start, interval: time.Duration(float64(time.Second) / perSecond), now: time.Now, sleep: time.Sleep}
}

// run calls op in order for every operation whose due time more accepts,
// and returns how late each one was issued.
func (p pacer) run(more func(due time.Time) bool, op func(i int, due time.Time)) (late samples) {
	for i := 0; ; i++ {
		due := p.start.Add(time.Duration(i) * p.interval)
		if !more(due) {
			return late
		}
		if d := due.Sub(p.now()); d > 0 {
			p.sleep(d)
		}
		late.add(max(p.now().Sub(due), 0))
		op(i, due)
	}
}

// before is the more function of a phase that ends at end.
func before(end time.Time) func(time.Time) bool {
	return func(due time.Time) bool { return due.Before(end) }
}
