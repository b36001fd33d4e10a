// Command perfbench is the repository's benchmark. It runs one workload
// against the real library and HTTP server, checks the workload's outputs,
// and prints every metric by name with its unit; the last line of standard
// output is one JSON result object.
//
//	perfbench --workload serve-mixed --seed 1 --seconds 20 --trace 0
//
// With --trace 1 the workload runs twice, untraced then traced: the traced
// pass records spans at every boundary the benchmark controls, prints the
// per-layer metrics and self times, writes the spans under .bench_build/,
// and reports the tracing overhead as the difference between the passes.
// See README.md for the workloads and metrics.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// buildDir is where the benchmark writes everything: WAL directories,
// traces and result records. It is relative to the working directory.
const buildDir = ".bench_build"

type workload struct {
	name string
	run  func(seed int64, seconds float64, tr *tracer) (*report, error)
}

var workloads = []workload{
	{"serve-mixed", runServe},
	{"ingest-openloop", runIngest},
	{"strategy-lifecycle", runLifecycle},
}

// setupReplicas is how many times a run builds its fixture; setup_s is
// the median build time and the last build is the one measured.
const setupReplicas = 3

// buildReplicas builds the fixture setupReplicas times, closing all but
// the last, and returns it with the median build time in seconds.
func buildReplicas[F any](build func() (F, error), closeFn func(F)) (F, float64, error) {
	var times samples
	var f F
	for i := 0; i < setupReplicas; i++ {
		// Each build starts from a collected heap, so garbage the last
		// replica left does not land in this one's time.
		runtime.GC()
		start := time.Now()
		g, err := build()
		if err != nil {
			return f, 0, err
		}
		times.add(time.Since(start))
		if i < setupReplicas-1 {
			closeFn(g)
		}
		f = g
	}
	return f, times.percentile(50) / 1000, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: serve-mixed, ingest-openloop or strategy-lifecycle")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "length of the measured run")
	trace := flag.Int("trace", 0, "1 runs the workload untraced then traced and reports per-layer metrics")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload serve-mixed|ingest-openloop|strategy-lifecycle --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if code := run(*w, *seed, *seconds, *trace == 1); code != 0 {
		os.Exit(code)
	}
}

func run(w workload, seed int64, seconds float64, traced bool) int {
	m := machineInfo()
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v\n", w.name, seed, seconds, traced)
	fmt.Printf("machine: cpu=%q nproc=%d GOMAXPROCS=%d go=%s\n", m.CPU, m.NProc, m.GOMAXPROCS, m.GoVersion)
	plain, err := w.run(seed, seconds, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("shape: %s\n", plain.shape)
	printTable(os.Stdout, "end-to-end (untraced):", e2eDefs, plain.e2e)
	final := plain
	if traced {
		tr := newTracer()
		t, err := w.run(seed, seconds, tr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s traced: %v\n", w.name, err)
			return 1
		}
		printTable(os.Stdout, "end-to-end (traced):", e2eDefs, t.e2e)
		printOverhead(plain, t)
		printTable(os.Stdout, "per-layer (traced):", layerDefs, t.layers)
		spans := tr.snapshot()
		printSelfTimes(selfTimes(spans))
		fmt.Println("not measurable from outside the program:")
		for _, u := range unmeasurable {
			fmt.Printf("  %s\n", u)
		}
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.name, seed))
		if err := tr.writeFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
		if t.checkErr == nil {
			t.checkErr = plain.checkErr
		}
		t.attempted += plain.attempted
		t.failed += plain.failed
		final = t
	}
	if final.checkErr != nil {
		fmt.Fprintf(os.Stderr, "correctness check failed: %v\n", final.checkErr)
	}
	fmt.Println("record", mustJSON(final.record(traced)))
	line, err := final.resultJSON(traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(mustJSON(line))
	if !line.Correct {
		return 1
	}
	return 0
}

func printOverhead(plain, traced *report) {
	fmt.Println("tracing overhead (traced − untraced):")
	for _, d := range e2eDefs {
		a, okA := plain.e2e[d.name]
		b, okB := traced.e2e[d.name]
		if !okA || !okB || math.IsNaN(a.V) || math.IsNaN(b.V) {
			continue
		}
		rel := ""
		if a.V != 0 {
			rel = fmt.Sprintf(" (%+.1f%%)", 100*(b.V-a.V)/a.V)
		}
		fmt.Printf("  %-32s %+10.4g %-6s%s\n", d.name, b.V-a.V, d.unit, rel)
	}
}

func printSelfTimes(self map[string]float64) {
	fmt.Println("self time per layer (span duration minus the time its children cover):")
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Printf("  %-32s %10.1f ms\n", l, self[l])
	}
}
