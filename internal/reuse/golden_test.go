package reuse_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cachemodel/internal/cache"
	"cachemodel/internal/ir"
	"cachemodel/internal/reuse"
	"cachemodel/internal/spec"
)

var update = flag.Bool("update", false, "rewrite testdata/vectors.golden from the current generator")

const goldenFile = "testdata/vectors.golden"

// goldenOptions are the option sets the golden covers: the default and
// every knob that changes which vectors survive.
var goldenOptions = []struct {
	name string
	opt  reuse.Options
}{
	{"default", reuse.Options{}},
	{"nocross", reuse.Options{NoCrossColumn: true}},
	{"nogroup", reuse.Options{NoGroup: true}},
	{"nospatial", reuse.Options{NoSpatial: true}},
	{"span2", reuse.Options{KernelSpan: 2}},
	{"max8", reuse.Options{MaxPerPair: 8}},
}

var goldenLines = []int64{16, 32, 64}

// goldenSize keeps every built-in small: Applu at N=4 (its 1255 inlined
// references do not depend on N), VCycle at its minimum of 16, the rest
// at 12.
func goldenSize(name string) int64 {
	switch name {
	case "applu":
		return 4
	case "vcycle":
		return 16
	}
	return 12
}

func goldenProgram(t testing.TB, name string) *ir.NProgram {
	t.Helper()
	np, _, err := spec.Program{Program: name, Size: goldenSize(name), Iters: 1}.Prepare(0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return np
}

// vectorDigest hashes every reference's ordered vector list, in program
// order: the vector's printed form plus its Spatial and Cross flags.
func vectorDigest(np *ir.NProgram, vecs map[*ir.NRef][]*reuse.Vector) string {
	h := sha256.New()
	var b []byte
	for _, r := range np.Refs {
		b = append(append(b[:0], r.ID...), ':')
		b = append(strconv.AppendInt(b, int64(len(vecs[r])), 10), '\n')
		for _, v := range vecs[r] {
			b = append(append(b, v.String()...), ' ')
			b = append(strconv.AppendBool(b, v.Spatial), ' ')
			b = append(strconv.AppendBool(b, v.Cross), '\n')
		}
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func goldenCfg(line int64) cache.Config {
	return cache.Config{SizeBytes: 32 << 10, LineBytes: line, Assoc: 1}
}

// TestGenerateGolden pins Generate's output, byte for byte, over every
// built-in × line sizes {16, 32, 64} × the golden option sets. Run with
// -update to rewrite the digests after an intended change. Under -race it
// checks only the 32-byte default row of each program: the race detector
// is after the per-set workers (TestGenerateDeterministic), and the full
// matrix runs without it.
func TestGenerateGolden(t *testing.T) {
	if *update && raceEnabled {
		t.Fatal("-update needs the full matrix: run it without -race")
	}
	var rows []string
	for _, b := range spec.Builtins() {
		np := goldenProgram(t, b.Name)
		for _, line := range goldenLines {
			for _, o := range goldenOptions {
				if raceEnabled && (line != 32 || o.name != "default") {
					continue
				}
				d := vectorDigest(np, reuse.Generate(np, goldenCfg(line), o.opt))
				rows = append(rows, fmt.Sprintf("%s n=%d line=%d %s %s", b.Name, goldenSize(b.Name), line, o.name, d))
			}
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(strings.Join(rows, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want[sc.Text()] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !raceEnabled && len(want) != len(rows) {
		t.Fatalf("golden has %d rows, generated %d", len(want), len(rows))
	}
	for _, row := range rows {
		if !want[row] {
			t.Errorf("row not in the golden (digest changed?): %s", row)
		}
	}
}

// TestGenerateDeterministic: per-set workers share nothing, so the output
// is the same whether the sets generate on one thread or on four.
func TestGenerateDeterministic(t *testing.T) {
	for _, name := range []string{"applu", "tomcatv", "swim"} {
		np := goldenProgram(t, name)
		cfg := goldenCfg(32)
		prev := runtime.GOMAXPROCS(1)
		one := vectorDigest(np, reuse.Generate(np, cfg, reuse.Options{}))
		runtime.GOMAXPROCS(4)
		four := vectorDigest(np, reuse.Generate(np, cfg, reuse.Options{}))
		runtime.GOMAXPROCS(prev)
		if one != four {
			t.Errorf("%s: GOMAXPROCS 1 digest %s, 4 digest %s", name, one, four)
		}
	}
}
