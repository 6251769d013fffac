package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance records what produced a run's numbers.
type provenance struct {
	Workload      string   `json:"workload"`
	Program       string   `json:"program"`
	N             int64    `json:"n"`
	Iters         int64    `json:"iters"`
	Seed          int64    `json:"seed"`
	Seconds       int      `json:"seconds"`
	Traced        bool     `json:"traced"`
	NProc         int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	SolverWorkers int      `json:"solver_workers"` // cme.Options.Workers 0 = GOMAXPROCS
	DistWorkers   int      `json:"dist_workers"`
	GoVersion     string   `json:"go_version"`
	Platform      string   `json:"platform"`
	Commit        string   `json:"commit"`
	SourceSHA256  string   `json:"source_sha256"` // Go sources of the checkout
	Command       []string `json:"command"`
}

func newProvenance(w *workload, seed int64, seconds int, traced bool) (*provenance, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return nil, err
	}
	cmd := os.Args
	if launcher := os.Getenv("PERFBENCH_COMMAND"); launcher != "" {
		cmd = append(strings.Fields(launcher), os.Args[1:]...)
	}
	return &provenance{
		Workload: w.Name, Program: w.Program, N: w.N, Iters: w.Iters,
		Seed: seed, Seconds: seconds, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		SolverWorkers: runtime.GOMAXPROCS(0), DistWorkers: runtime.NumCPU(),
		GoVersion: runtime.Version(), Platform: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: gitCommit("."), SourceSHA256: src, Command: cmd,
	}, nil
}

// gitCommit reads the checked-out commit from root/.git without running
// git; a checkout that is not a git repository reports "none".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and contents of every Go source and module
// file under root, skipping hidden directories (the build output among
// them), so a run names the code it measured even outside git.
func sourceDigest(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		h.Write([]byte(filepath.ToSlash(f)))
		h.Write([]byte{0})
		h.Write(blob)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
