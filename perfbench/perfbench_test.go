package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"birds/internal/datalog"
	"birds/internal/engine"
	"birds/internal/value"
)

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		want   float64
		p      float64
		usable bool
	}{
		{10000, 99.9, 99.9, true},
		{9999, 99.9, 99, true},
		{1000, 99, 99, true},
		{999, 99, 95, true},
		{200, 99, 95, true},
		{199, 99, 90, true},
		{100, 90, 90, true},
		{40, 90, 75, true},
		{20, 99, 50, true},
		{19, 99, 0, false},
	} {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.usable {
			t.Errorf("tailPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.want, p, ok, c.p, c.usable)
		}
		if ok && float64(c.n)*(100-p) < 1000-1e-6 {
			t.Errorf("n=%d: p%g leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestSamplesTail(t *testing.T) {
	var s samples
	for i := 1; i <= 1000; i++ {
		s = append(s, float64(i))
	}
	if v, note := s.tail(99); note != "" || math.Abs(v-990.01) > 1e-9 {
		t.Errorf("p99 of 1..1000 = %v (%q), want 990.01", v, note)
	}
	if v, note := s[:500].tail(99); note == "" || math.Abs(v-475.05) > 1e-9 {
		t.Errorf("tail(99) of 500 samples = %v (%q), want p95 = 475.05 with a note", v, note)
	}
	if v, _ := s[:9].tail(99); !math.IsNaN(v) {
		t.Errorf("tail of 9 samples = %v, want NaN", v)
	}
}

// fakeClock advances only when the pacer sleeps or an operation runs.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) sleep(d time.Duration)   { c.t = c.t.Add(d) }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestPacerTimesFromDueTimeAndReportsLateness(t *testing.T) {
	t0 := time.Unix(1000, 0)
	clk := &fakeClock{t: t0}
	p := pacer{start: t0, interval: 10 * time.Millisecond, now: clk.now, sleep: clk.sleep}
	var lat []time.Duration
	late := p.run(before(t0.Add(60*time.Millisecond)), func(i int, due time.Time) {
		work := time.Millisecond
		if i == 1 {
			work = 35 * time.Millisecond // a stall delays the ops due after it
		}
		clk.advance(work)
		lat = append(lat, clk.now().Sub(due))
	})
	ms := time.Millisecond
	// Op 1 is issued on time at 10 and ends at 45; ops 2-4 were due at
	// 20, 30, 40 and start late at 45, 46, 47; op 5 is on time again.
	wantLat := []time.Duration{1 * ms, 35 * ms, 26 * ms, 17 * ms, 8 * ms, 1 * ms}
	wantLate := samples{0, 0, 25, 16, 7, 0}
	if !reflect.DeepEqual(lat, wantLat) {
		t.Errorf("latencies from due time = %v, want %v", lat, wantLat)
	}
	if !reflect.DeepEqual(late, wantLate) {
		t.Errorf("lateness = %v, want %v", late, wantLate)
	}
}

func TestSameSeedSameOps(t *testing.T) {
	ops := func(seed int64, session int) []op {
		s := newOpStream(seed, session)
		out := make([]op, 10000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a := ops(7, 0)
	if !reflect.DeepEqual(a, ops(7, 0)) {
		t.Fatal("seed 7 gave two different op sequences")
	}
	if reflect.DeepEqual(a[:100], ops(8, 0)[:100]) || reflect.DeepEqual(a[:100], ops(7, 1)[:100]) {
		t.Fatal("another seed or session gave the same op sequence")
	}
	var count [4]int
	for _, o := range a {
		count[o.kind]++
	}
	for k, want := range []float64{0.45, 0.10, 0.30, 0.15} {
		if got := float64(count[k]) / float64(len(a)); math.Abs(got-want) > 0.02 {
			t.Errorf("%s share = %.3f, want about %.2f", opKind(k), got, want)
		}
	}

	txns := func(seed int64) []string {
		g := newIngestTxns(seed)
		var out []string
		for i := 0; i < 100; i++ {
			for _, st := range g.txn() {
				out = append(out, st.Target+value.Tuple(st.Row).String())
			}
		}
		return out
	}
	if !reflect.DeepEqual(txns(3), txns(3)) || reflect.DeepEqual(txns(3), txns(4)) {
		t.Fatal("ingest transactions are not a function of the seed")
	}
}

func TestMetricNames(t *testing.T) {
	var names []string
	for _, defs := range [][]metricDef{e2eDefs, layerDefs} {
		for _, d := range defs {
			names = append(names, d.name)
		}
	}
	names = append(names, contractE2E...)
	names = append(names, contractLayers...)
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("metric name %q is outside [A-Za-z0-9_.-]", n)
		}
		if unitOf(n) == "" {
			t.Errorf("metric %q has no unit", n)
		}
	}
	for _, bad := range []string{"p99 ms", "lat/ms", "", ".x", "µs"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSONMatchesContract keeps BENCHMARK.json and the metrics
// the result line carries in step.
func TestBenchmarkJSONMatchesContract(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i] || m.Unit != unitOf(want[i]) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]", kind, i, m.Name, m.Unit, want[i], unitOf(want[i]))
			}
		}
	}
	check("end_to_end", spec.EndToEnd, contractE2E)
	check("per_layer", spec.PerLayer, contractLayers)
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(wl, have) {
		t.Errorf("BENCHMARK.json workloads %v, the benchmark runs %v", wl, have)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client.write", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "server.exec", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "server.exec", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "server.exec", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	// client: 100 − (10..50 ∪ 90..100) = 50; server: 20 + 30 + 30 = 80.
	if math.Abs(got["client"]-50e-6) > 1e-12 || math.Abs(got["server"]-80e-6) > 1e-12 {
		t.Errorf("self times = %v, want client 50ns, server 80ns", got)
	}
}

func item(iid, price, oid int64) value.Tuple { return itemRow(iid, "x", price, oid) }

func TestCheckServeCatchesMismatch(t *testing.T) {
	hot := item(hotBase+5, 1500, 0)
	build := func() (items, owners, luxury, owned *value.Relation) {
		items = value.RelationOf(4, item(1, 1200, 0), item(2, 10, noOwner), hot)
		owners = value.RelationOf(2, value.Tuple{value.Int(0), value.Str("ann")})
		luxury = value.RelationOf(4, item(1, 1200, 0), hot)
		owned = value.RelationOf(5,
			append(item(1, 1200, 0), value.Str("ann")),
			append(hot.Clone(), value.Str("ann")))
		return
	}
	expect := []value.Tuple{hot}
	i, o, l, w := build()
	if err := checkServe(i, o, l, w, nil); err != nil {
		t.Fatalf("consistent state rejected: %v", err)
	}
	if err := checkServe(i, o, l, w, expect); err != nil {
		t.Fatalf("consistent state with its hot row rejected: %v", err)
	}
	i, o, l, w = build()
	l.Add(item(2, 10, noOwner))
	if checkServe(i, o, l, w, expect) == nil {
		t.Error("luxury with a cheap row accepted")
	}
	i, o, l, w = build()
	w.Remove(append(item(1, 1200, 0), value.Str("ann")))
	if checkServe(i, o, l, w, expect) == nil {
		t.Error("owned missing a joined row accepted")
	}
	i, o, l, w = build()
	if checkServe(i, o, l, w, []value.Tuple{item(hotBase+6, 1500, 0)}) == nil {
		t.Error("a lost acked hot row accepted")
	}
}

func TestCheckMirrorsCatchesMismatch(t *testing.T) {
	live := value.RelationOf(4, item(1, 1200, 0))
	if err := checkMirrors(live, []*value.Relation{live.Clone(), live.Clone()}, 0); err != nil {
		t.Fatalf("equal mirrors rejected: %v", err)
	}
	bad := live.Clone()
	bad.Add(item(2, 1300, 0))
	if checkMirrors(live, []*value.Relation{live.Clone(), bad}, 0) == nil {
		t.Error("diverged mirror accepted")
	}
	if checkMirrors(live, []*value.Relation{live.Clone(), nil}, 0) == nil {
		t.Error("missing mirror accepted")
	}
	if checkMirrors(live, []*value.Relation{live.Clone()}, 1) == nil {
		t.Error("failed commit accepted")
	}
}

func TestCheckInstalledCatchesMismatch(t *testing.T) {
	if err := checkInstalled(31, 31, []string{"emp_view"}, []string{"emp_view"}); err != nil {
		t.Fatal(err)
	}
	if checkInstalled(30, 31, []string{"emp_view"}, []string{"emp_view"}) == nil {
		t.Error("a strategy that failed validation was accepted")
	}
	if checkInstalled(31, 31, nil, []string{"emp_view"}) == nil {
		t.Error("emp_view not reported as not expressible was accepted")
	}
}

func TestCheckViewsAgainstGetCatchesMismatch(t *testing.T) {
	db := engine.NewDB()
	if err := createTable(db, itemsDecl); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTable("items", []value.Tuple{item(1, 1200, noOwner), item(2, 10, noOwner)}); err != nil {
		t.Fatal(err)
	}
	if err := (&installer{}).create(db, luxuryProgram, luxuryGet, true); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec(engine.Insert("luxury", item(3, 1500, noOwner)...)); err != nil {
		t.Fatal(err)
	}
	if err := checkViewsAgainstGet(db, []string{"luxury"}); err != nil {
		t.Fatalf("maintained view rejected: %v", err)
	}
	db.Store().Rel(datalog.Pred("luxury")).Add(item(4, 1600, noOwner))
	if checkViewsAgainstGet(db, []string{"luxury"}) == nil {
		t.Error("view holding a row its get does not derive accepted")
	}
}

func TestPrefixProgram(t *testing.T) {
	src, get, err := prefixProgram(luxuryProgram, luxuryGet, "t03_")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := datalog.Parse(src)
	if err != nil {
		t.Fatalf("renamed program does not parse: %v\n%s", err, src)
	}
	if prog.View.Name != "t03_luxury" || prog.Sources[0].Name != "t03_items" {
		t.Errorf("view %s, source %s: not prefixed", prog.View.Name, prog.Sources[0].Name)
	}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.Atom != nil && !strings.HasPrefix(l.Atom.Pred.Name, "t03_") {
				t.Errorf("rule %s keeps relation %s", r, l.Atom.Pred.Name)
			}
		}
	}
	if !strings.HasPrefix(get, "t03_luxury(") || !strings.Contains(get, "t03_items(") {
		t.Errorf("get not prefixed: %s", get)
	}
}
