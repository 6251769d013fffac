package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachemodel/internal/cme"
	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
	"cachemodel/internal/spec"
)

const xlayerSrc = `
      PROGRAM JAC
      REAL*8 A, B
      DIMENSION A(N,N), B(N,N)
      DO I = 2, N - 1
        DO J = 2, N - 1
          A(J,I) = B(J-1,I) + B(J+1,I) + B(J,I-M)
        ENDDO
      ENDDO
      END
`

// TestLayersResolveAlike: the CLI flags, a serve sweep (over HTTP, through
// its admission path) and a dist sweep (decoded from the wire, through
// SolveLocal) resolve the same program — a built-in by any spelling of
// its name, or inline source — to the same prepared solve: equal
// SolveKeys, and byte-identical rows between serve and dist.
func TestLayersResolveAlike(t *testing.T) {
	srcPath := filepath.Join(t.TempDir(), "jac.f")
	if err := os.WriteFile(srcPath, []byte(xlayerSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(context.Background())

	keys := map[string]string{}
	for _, tc := range []struct {
		name string
		args []string
		wire spec.Program
	}{
		{"tomcatv", []string{"-program", "tomcatv", "-size", "8", "-iters", "1"},
			spec.Program{Program: "tomcatv", Size: 8, Iters: 1}},
		{"TOMCATV", []string{"-program", "TOMCATV", "-size", "8", "-iters", "1"},
			spec.Program{Program: "TOMCATV", Size: 8, Iters: 1}},
		{"hydro", []string{"-program", "hydro", "-size", "12"},
			spec.Program{Program: "hydro", Size: 12}},
		{"source", []string{"-file", srcPath, "-const", "n=10,M=1"},
			spec.Program{Source: xlayerSrc, Consts: map[string]int64{"N": 10, "m": 1}}},
	} {
		// CLI: the flags every program-taking subcommand registers.
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		prog, gflags := newProgramFlags(fs, "hydro", 32, 2), newGridFlags(fs)
		if err := fs.Parse(append(tc.args, "-sizes", "4096", "-assocs", "1,2")); err != nil {
			t.Fatalf("%s: flags: %v", tc.name, err)
		}
		np, _, err := prog.prepare()
		if err != nil {
			t.Fatalf("%s: CLI prepare: %v", tc.name, err)
		}
		grid, err := gflags.grid()
		if err != nil {
			t.Fatalf("%s: CLI grid: %v", tc.name, err)
		}
		cells, err := grid.Cells(0)
		if err != nil {
			t.Fatalf("%s: CLI cells: %v", tc.name, err)
		}
		prep, err := cme.Prepare(np, cme.Options{})
		if err != nil {
			t.Fatalf("%s: Prepare: %v", tc.name, err)
		}
		cliKey := prep.SolveKey(spec.Candidates(cells), nil)

		// serve: the real HTTP admission path.
		serveKey, serveRows := serveSweep(t, ts.URL, &serve.SweepRequest{ProgramSpec: tc.wire,
			CacheSizes: []int64{4096}, Assocs: []int{1, 2}, Exact: true})

		// dist: the spec as a coordinator decodes it, solved in process.
		blob, err := json.Marshal(&dist.SweepSpec{ProgramSpec: tc.wire, SolveSpec: dist.SolveSpec{Exact: true},
			CacheSizes: []int64{4096}, Assocs: []int{1, 2}})
		if err != nil {
			t.Fatal(err)
		}
		var ds dist.SweepSpec
		if err := json.Unmarshal(blob, &ds); err != nil {
			t.Fatal(err)
		}
		dnp, _, err := ds.ProgramSpec.Prepare(0)
		if err != nil {
			t.Fatalf("%s: dist prepare: %v", tc.name, err)
		}
		dprep, err := cme.Prepare(dnp, cme.Options{})
		if err != nil {
			t.Fatalf("%s: dist Prepare: %v", tc.name, err)
		}
		distKey := dprep.SolveKey(spec.Candidates(cells), nil)
		distRows, err := ds.SolveLocal(context.Background(), 1)
		if err != nil {
			t.Fatalf("%s: SolveLocal: %v", tc.name, err)
		}

		if cliKey != serveKey || cliKey != distKey {
			t.Errorf("%s: SolveKeys differ: cli %s serve %s dist %s", tc.name, cliKey, serveKey, distKey)
		}
		if got, want := mustMarshal(t, serveRows), mustMarshal(t, distRows); got != want {
			t.Errorf("%s: serve rows differ from dist rows:\n%s\n%s", tc.name, got, want)
		}
		keys[tc.name] = cliKey
	}
	if keys["tomcatv"] != keys["TOMCATV"] {
		t.Errorf("name case changed the SolveKey")
	}
	if keys["tomcatv"] == keys["hydro"] || keys["hydro"] == keys["source"] {
		t.Errorf("distinct programs share a SolveKey: %v", keys)
	}
}

// serveSweep submits a sweep, polls the job to completion and returns its
// SolveKey and its rows in the dist wire form.
func serveSweep(t *testing.T, base string, req *serve.SweepRequest) (string, []dist.Row) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var sub struct {
		Job string `json:"job"`
	}
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d err %v", resp.StatusCode, err)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + sub.Job)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var got struct {
			Status string        `json:"status"`
			Result *serve.Result `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		switch got.Status {
		case string(serve.StatusDone):
			var rows []dist.Row
			for _, c := range got.Result.Candidates {
				row := dist.Row{Label: c.Label, CacheBytes: c.CacheBytes, LineBytes: c.LineBytes, Assoc: c.Assoc,
					MissRatioPct: c.MissRatioPct, EstimatedMisses: c.EstimatedMisses, Accesses: c.Accesses,
					Tier: c.Tier, Degraded: c.Degraded, Coverage: c.Coverage, Error: c.Error}
				for _, rr := range c.Refs {
					row.Refs = append(row.Refs, dist.RefRow{ID: rr.ID, Volume: rr.Volume, Analyzed: rr.Analyzed,
						Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl, Tier: rr.Tier, Ratio: rr.Ratio})
				}
				rows = append(rows, row)
			}
			return got.Result.Key, rows
		case string(serve.StatusFailed):
			t.Fatalf("serve job failed: %+v", got.Result.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve job %s still %s", sub.Job, got.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return strings.TrimSpace(string(blob))
}
