// Command perfbench is the end-to-end benchmark of the cache model. It
// drives the pipeline from outside, timing calls into the public functions
// of kernels, inline, normalize, layout, reuse, cme, trace, dist and serve,
// checks every output, and prints one JSON result as its last line.
//
//	bash perfbench/run.sh --workload tomcatv-single --seed 1 --seconds 30 --trace 0
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced
// run (--trace 1) records spans around every layer call and reports the
// per-layer metrics, the tracing overhead and the simulator-as-bar rows.
// BENCHMARK.json at the repository root lists the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// outDir receives the traced runs' span files, relative to the checkout
// root the benchmark runs from.
const outDir = ".bench_build/perfbench"

type options struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// minPasses is the fewest passes the run makes, whatever seconds
	// says; a traced run needs two, one traced and one not.
	minPasses int
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed of the sampled estimates (cme.Options.Seed)")
	seconds := flag.Int("seconds", 10, "how long the run measures")
	traceFlag := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, traceFlag int) error {
	w, err := findWorkload(workloads, name)
	if err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	prov, err := newProvenance(w, seed, seconds, traceFlag == 1)
	if err != nil {
		return err
	}
	opt := options{seed: seed, seconds: time.Duration(seconds) * time.Second, traced: traceFlag == 1, minPasses: 3}
	rep := run(context.Background(), w, opt)
	rep.prov = prov

	printLine("provenance", prov)
	for _, f := range rep.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	res := rep.result()
	if opt.traced {
		printLine("derived", rep.derived)
		path, err := rep.writeTrace(name, seed)
		if err != nil {
			return err
		}
		fmt.Printf("spans %s\n", path)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// printLine prints a labelled JSON line ahead of the result.
func printLine(label string, v any) {
	blob, err := json.Marshal(v)
	if err != nil {
		blob = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("%s %s\n", label, blob)
}

// passRecord is one finished pass with its check results.
type passRecord struct {
	p          *pass
	out        *outputs
	exactness  exactness
	sampledErr float64
	allocBytes uint64
}

// runReport is everything a run measured.
type runReport struct {
	w        *workload
	opt      options
	prov     *provenance
	passes   []*passRecord
	attempts int
	failures []string
	derived  *derived
}

// run makes passes until the time is spent, at least opt.minPasses of
// them.
// A traced run alternates traced and untraced passes, starting traced, so
// both halves see the same machine state; the untraced ones measure the
// tracing overhead.
func run(ctx context.Context, w *workload, opt options) *runReport {
	rep := &runReport{w: w, opt: opt}
	start := time.Now()
	for i := 0; ; i++ {
		rec := onePass(ctx, w, opt.seed, opt.traced && i%2 == 0)
		if i == 0 && w.Design != nil {
			// The closed-form ladder's cross-check is one more exact
			// solve; it is deterministic, so the first pass suffices.
			rec.p.check(checkLadderExact(ctx, w, rec.out))
		}
		rec.out.releaseLarge()
		rep.passes = append(rep.passes, rec)
		rep.attempts += rec.p.attempts
		rep.failures = append(rep.failures, rec.p.failures...)
		last := rec.p.first("pass")
		fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: %.3fs in calls, %.3fs in all, %.3fs collecting the heap\n",
			w.Name, i, rec.p.inCalls["pass"].Seconds(), last.Seconds(), rec.p.gc.Seconds())
		if i+1 >= opt.minPasses && time.Since(start)+last > opt.seconds {
			break
		}
	}
	if opt.traced {
		rep.derived = measureDerived(ctx, w, opt.seed, rep)
	}
	return rep
}

// onePass runs and checks one pass.
func onePass(ctx context.Context, w *workload, seed int64, traced bool) *passRecord {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	p := newPass(traced)
	out := runPass(ctx, w, seed, p)
	runtime.ReadMemStats(&ms)
	rec := &passRecord{p: p, out: out, allocBytes: ms.TotalAlloc - alloc0}
	rec.exactness, rec.sampledErr = checkPass(w, out, p)
	return rec
}

// releaseLarge drops the pass's reports once checked, keeping only the
// counts the metrics read, so passes do not pile up in the heap.
func (o *outputs) releaseLarge() {
	if o.np != nil {
		o.refs = len(o.np.Refs)
	}
	for _, vs := range o.vecs {
		o.vectors += len(vs)
	}
	if len(o.sims) > 0 && o.sims[0] != nil {
		o.simAccesses = o.sims[0].Accesses
	}
	o.np, o.vecs, o.exacts, o.estimates, o.sims = nil, nil, nil, nil, nil
	o.column, o.grid, o.ladder, o.distRows, o.serveRows = nil, nil, nil, nil, nil
}

// peakRSSMB is the process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// writeTrace writes the traced passes' spans with the run's provenance,
// per-layer metrics and derived rows, once the run has ended.
func (r *runReport) writeTrace(name string, seed int64) (string, error) {
	type passSpans struct {
		Index int    `json:"index"`
		Spans []span `json:"spans"`
	}
	doc := struct {
		Provenance *provenance       `json:"provenance"`
		Derived    *derived          `json:"derived"`
		PerLayer   map[string]metric `json:"per_layer"`
		Passes     []passSpans       `json:"passes"`
	}{Provenance: r.prov, Derived: r.derived, PerLayer: r.layerMetrics()}
	for i, rec := range r.passes {
		if rec.p.traced {
			doc.Passes = append(doc.Passes, passSpans{Index: i, Spans: rec.p.spans})
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	blob, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(blob, '\n'), 0o644)
}
