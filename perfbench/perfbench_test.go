package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return &bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadsEmitEveryMetric runs every workload at a tiny size, untraced
// and traced, and checks each run passes its output checks and emits
// exactly the metrics BENCHMARK.json names, with their units.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].Name || w.Name != tinyWorkloads[i].Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q (tiny %q)",
				i, w.Name, workloads[i].Name, tinyWorkloads[i].Name)
		}
	}
	for _, w := range tinyWorkloads {
		for _, traced := range []bool{false, true} {
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			rep := run(context.Background(), w, options{seed: 7, traced: traced, minPasses: 2})
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, rep.failures)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, got.Unit, m.Unit)
				case !metricName.MatchString(m.Name):
					t.Errorf("metric name %q", m.Name)
				}
				if !traced && strings.HasSuffix(m.Name, "_s") && got.Value <= 0 {
					t.Errorf("%s: time %s = %v", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestCorruptedCountTripsCheck flips one miss of the exact report into a
// hit and expects the output checks to catch it: the reference then
// under-counts the simulator, and the design grid's base row no longer
// matches FindMisses.
func TestCorruptedCountTripsCheck(t *testing.T) {
	w, err := findWorkload(tinyWorkloads, "tomcatv-design")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p := newPass(false)
	out := runPass(ctx, w, 1, p)
	checkPass(w, out, p)
	if !p.ok() {
		t.Fatalf("clean pass failed its checks: %v", p.failures)
	}

	flipped := false
	for _, rr := range out.exacts[0].Refs {
		if st := out.sims[0].PerRef[rr.Ref]; rr.Misses() > 0 && rr.Misses() == st.Misses {
			if rr.Repl > 0 {
				rr.Repl--
			} else {
				rr.Cold--
			}
			rr.Hits++
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no reference whose exact misses equal the simulator's")
	}
	p2 := newPass(false)
	checkPass(w, out, p2)
	joined := strings.Join(p2.failures, "\n")
	for _, want := range []string{"below simulator misses", "vs FindMisses"} {
		if !strings.Contains(joined, want) {
			t.Errorf("corrupted count: no failure mentioning %q; failures:\n%s", want, joined)
		}
	}
}
