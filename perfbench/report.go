package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"strings"
)

// metricDef names one metric. A metric absent from a workload's report
// prints as "n/a" with naReason.
type metricDef struct {
	name, unit string
	naReason   string
}

// e2eDefs are the end-to-end metrics, in print order.
var e2eDefs = []metricDef{
	{"setup_s", "s", ""},
	{"write_p50_ms", "ms", "no base-table writes are acked one by one here"},
	{"write_p99_ms", "ms", "no base-table writes are acked one by one here"},
	{"view_update_p50_ms", "ms", "no view updates in this workload"},
	{"view_update_p90_ms", "ms", "no view updates in this workload"},
	{"read_p50_ms", "ms", "no HTTP reads in this workload"},
	{"read_p99_ms", "ms", "no HTTP reads in this workload"},
	{"ops_per_s", "1/s", "not a closed-loop session workload"},
	{"commit_p50_ms", "ms", "no open-loop commits in this workload"},
	{"commit_p99_ms", "ms", "no open-loop commits in this workload"},
	{"commit_admit_p50_ms", "ms", "no open-loop commits in this workload"},
	{"ingest_tps", "txn/s", "no saturation phase in this workload"},
	{"cdc_lag_p50_ms", "ms", "no CDC subscribers in this workload"},
	{"cdc_lag_p99_ms", "ms", "no CDC subscribers in this workload"},
	{"ddl_total_s", "s", "no DDL phase in this workload"},
	{"op_cpu_ms", "ms", ""},
	{"error_rate", "ratio", ""},
}

// layerDefs are the per-layer metrics of a traced run, in print order.
var layerDefs = []metricDef{
	{"server.exec_ms", "ms", "no HTTP server in this workload"},
	{"server.read_ms", "ms", "no HTTP server in this workload"},
	{"server.read_bytes", "B", "no HTTP server in this workload"},
	{"server.stats_ms", "ms", "no HTTP server in this workload"},
	{"http.client_overhead_ms", "ms", "no HTTP server in this workload"},
	{"engine.txns_per_flush", "txn", "no group-commit batcher in this workload"},
	{"engine.flushes_per_s", "1/s", "no group-commit batcher in this workload"},
	{"engine.write_after_snapshot_ms", "ms", "no session polls /stats in this workload"},
	{"engine.install_ms", "ms", ""},
	{"engine.stale_views", "count", ""},
	{"datalog.parse_ms", "ms", ""},
	{"analysis.classify_ms", "ms", ""},
	{"core.validate_ms", "ms", ""},
	{"core.incrementalize_ms", "ms", ""},
	{"core.validate_max_ms", "ms", ""},
	{"wal.fsync_ms", "ms", "no write-ahead log in this workload"},
	{"wal.fsync_busy_frac", "ratio", "no write-ahead log in this workload"},
	{"wal.bytes_per_txn", "B", "no write-ahead log in this workload"},
	{"wal.checkpoints", "count", "no write-ahead log in this workload"},
	{"wal.checkpoint_ms", "ms", "no write-ahead log in this workload"},
	{"wal.checkpoint_bytes", "B", "no write-ahead log in this workload"},
	{"cdc.events_per_s", "1/s", "no CDC subscribers in this workload"},
	{"cdc.dropped", "count", "no CDC subscribers in this workload"},
	{"cdc.resyncs", "count", "no CDC subscribers in this workload"},
	{"cdc.max_lag_seqs", "count", "no CDC subscribers in this workload"},
	{"go.gc_cpu_frac", "ratio", ""},
	{"go.alloc_bytes_per_op", "B", ""},
	{"go.heap_peak_mb", "MB", ""},
	{"bench.gen_late_p99_ms", "ms", "closed loop: no send schedule to fall behind"},
}

// Metrics the layers hide from a caller outside the program. They are
// printed on every traced run so their absence is never silent.
var unmeasurable = []string{
	"engine.execView ∂put phase split (delta evaluation vs store apply vs IVM): " +
		"runs inside one engine call under the write lock; needs in-program phase timers",
	"eval/value self time: no public seam between the engine and the evaluator; " +
		"go.gc_cpu_frac and go.alloc_bytes_per_op stand in for them",
}

// contractE2E are the end-to-end metrics BENCHMARK.json lists; every
// workload reports each of them. op_cpu_ms is the process CPU time per
// operation: per completed op on serve-mixed, per committed transaction
// on ingest-openloop, per phase-B view update on strategy-lifecycle. The
// latencies are printed but not listed: on a shared 2-CPU machine the
// hypervisor's steal time swings between 3% and 20% within minutes, and
// every wall-clock figure moves with it by more than a regression bound
// may, while CPU time does not count stolen time (see BASELINE.md).
var contractE2E = []string{"setup_s", "op_cpu_ms"}

// contractLayers are the per-layer metrics BENCHMARK.json lists: the ones
// every workload measures. The rest print in the traced run's table.
var contractLayers = []string{
	"engine.install_ms", "engine.stale_views", "datalog.parse_ms", "analysis.classify_ms",
	"core.validate_ms", "core.validate_max_ms", "core.incrementalize_ms",
	"go.gc_cpu_frac", "go.alloc_bytes_per_op", "go.heap_peak_mb",
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// measure is one measured metric.
type measure struct {
	V    float64
	N    int    // samples behind a percentile; 0 when not a percentile
	Note string // how it was measured, when the name alone does not say
}

// report is one workload run's outcome.
type report struct {
	workload  string
	seed      int64
	shape     string // size, loop type and flush policy
	attempted int
	failed    int
	e2e       map[string]measure
	layers    map[string]measure
	checkErr  error
}

func newReport(workload string, seed int64) *report {
	return &report{workload: workload, seed: seed, e2e: map[string]measure{}, layers: map[string]measure{}}
}

func (r *report) setE2E(name string, v float64)   { r.e2e[name] = measure{V: v} }
func (r *report) setLayer(name string, v float64) { r.layers[name] = measure{V: v} }

// setLatency records a median or tail metric from s.
func (r *report) setLatency(into map[string]measure, name string, s samples, want float64) {
	if want == 50 {
		into[name] = measure{V: s.percentile(50), N: len(s)}
		return
	}
	v, note := s.tail(want)
	into[name] = measure{V: v, N: len(s), Note: note}
}

// machine is the metadata every result record carries.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func machineInfo() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

func fmtValue(v float64) string {
	if math.IsNaN(v) {
		return "none"
	}
	return fmt.Sprintf("%.4g", v)
}

func printTable(w io.Writer, title string, defs []metricDef, got map[string]measure) {
	fmt.Fprintf(w, "%s\n", title)
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok {
			fmt.Fprintf(w, "  %-32s n/a (%s)\n", d.name, d.naReason)
			continue
		}
		line := fmt.Sprintf("  %-32s %10s %-6s", d.name, fmtValue(v.V), d.unit)
		if v.N > 0 {
			line += fmt.Sprintf(" n=%d", v.N)
		}
		if v.Note != "" {
			line += "  [" + v.Note + "]"
		}
		fmt.Fprintln(w, line)
	}
}

// contractValue looks a BENCHMARK.json metric up in this workload's report.
func (r *report) contractValue(name string) (measure, bool) {
	if v, ok := r.e2e[name]; ok {
		return v, true
	}
	v, ok := r.layers[name]
	return v, ok
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{e2eDefs, layerDefs} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// resultJSON builds the last output line: the contract's end-to-end
// metrics, or with traced set its per-layer metrics. A metric the run
// could not measure makes the run incorrect rather than silently absent.
func (r *report) resultJSON(traced bool) (resultLine, error) {
	names := contractE2E
	if traced {
		names = contractLayers
	}
	out := resultLine{Correct: r.checkErr == nil, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]resultMetric{}}
	for _, n := range names {
		if !metricName.MatchString(n) {
			return out, fmt.Errorf("metric name %q is outside [A-Za-z0-9_.-]", n)
		}
		v, ok := r.contractValue(n)
		if !ok || math.IsNaN(v.V) || math.IsInf(v.V, 0) {
			return out, fmt.Errorf("metric %s was not measured", n)
		}
		unit := unitOf(n)
		out.Metrics[n] = resultMetric{Value: v.V, Unit: unit}
	}
	return out, nil
}

// record is the full result of one run, with machine metadata.
type record struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"`
	Shape     string             `json:"shape"`
	Machine   machine            `json:"machine"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Check     string             `json:"check"`
	E2E       map[string]measure `json:"end_to_end"`
	Layers    map[string]measure `json:"per_layer,omitempty"`
}

func (r *report) record(traced bool) record {
	check := "ok"
	if r.checkErr != nil {
		check = r.checkErr.Error()
	}
	rec := record{Workload: r.workload, Seed: r.seed, Traced: traced, Shape: r.shape, Machine: machineInfo(),
		Attempted: r.attempted, Failed: r.failed, Check: check, E2E: finite(r.e2e), Layers: finite(r.layers)}
	return rec
}

// finite drops NaN values, which JSON cannot carry; the table printed
// before the record names them.
func finite(m map[string]measure) map[string]measure {
	out := make(map[string]measure, len(m))
	for k, v := range m {
		if !math.IsNaN(v.V) && !math.IsInf(v.V, 0) {
			out[k] = v
		}
	}
	return out
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers and strings reach here
	}
	return string(b)
}
