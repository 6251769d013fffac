package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"cachemodel/internal/obs"
)

// span is one timed call into a layer, or a group of such calls. Spans are
// recorded only in traced passes; untraced passes keep the durations alone.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // -1 for a pass root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // offset from the pass start
	EndNs   int64  `json:"end_ns"`
	// Counters holds the obs.Default counter deltas over the call, plus
	// "<histogram>_sum" and "<histogram>_count" deltas; zero deltas are
	// left out. Group spans carry none.
	Counters map[string]int64 `json:"counters,omitempty"`
	// AllocBytes is the heap allocated during the call (leaf spans only).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

func (s *span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// layer names the module a span belongs to: the prefix of its name before
// the first dot ("cme.findmisses" → "cme"). Group spans ("pass", "setup")
// and everything else the benchmark does between layer calls belong to
// the "bench" layer.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// pass records one workload pass: the duration of every call by name,
// the operations attempted and failed, and (when traced) the span tree.
type pass struct {
	traced bool
	t0     time.Time
	spans  []span
	stack  []int

	durs map[string][]time.Duration
	// inCalls sums, per open group, the durations of the calls made
	// inside it: the group's time without the heap collections and
	// bookkeeping between calls.
	inCalls  map[string]time.Duration
	groups   []string
	lastCall string
	gc       time.Duration // spent collecting the heap before calls
	attempts int
	failures []string
}

func newPass(traced bool) *pass {
	return &pass{traced: traced, t0: time.Now(),
		durs: map[string][]time.Duration{}, inCalls: map[string]time.Duration{}}
}

// group runs fn, whose calls belong to the named group, as a span that
// encloses them. It counts no operation and reads no counters.
func (p *pass) group(name string, fn func()) {
	id := p.open(name)
	p.groups = append(p.groups, name)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.groups = p.groups[:len(p.groups)-1]
	p.close(id, start, d, nil, 0)
	p.durs[name] = append(p.durs[name], d)
}

// call times one call into a layer and counts it as an operation; an
// error fails the operation. A call starts on a collected heap, as a
// user's single call in a fresh process would, so garbage left by earlier
// calls puts no collector work into its time; a run of repeated calls
// shares one collection. In a traced pass the counter snapshots and heap
// statistics are read outside the timed interval, so a leaf span's
// duration is the call alone and the tracing cost shows as self time of
// the enclosing group.
func (p *pass) call(name string, fn func() error) time.Duration {
	if name != p.lastCall {
		g := time.Now()
		runtime.GC()
		p.gc += time.Since(g)
	}
	p.lastCall = name
	var before obs.Snapshot
	var ms runtime.MemStats
	var alloc0 uint64
	if p.traced {
		before = obs.Default.Snapshot()
		runtime.ReadMemStats(&ms)
		alloc0 = ms.TotalAlloc
	}
	id := p.open(name)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	if p.traced {
		runtime.ReadMemStats(&ms)
		p.close(id, start, d, counterDelta(before, obs.Default.Snapshot()), ms.TotalAlloc-alloc0)
	}
	p.durs[name] = append(p.durs[name], d)
	for _, g := range p.groups {
		p.inCalls[g] += d
	}
	p.attempts++
	if err != nil {
		p.fail(fmt.Errorf("%s: %w", name, err))
	}
	return d
}

// check counts one output check as an operation.
func (p *pass) check(err error) {
	p.attempts++
	if err != nil {
		p.fail(err)
	}
}

func (p *pass) fail(err error) { p.failures = append(p.failures, err.Error()) }

func (p *pass) ok() bool { return len(p.failures) == 0 }

func (p *pass) open(name string) int {
	if !p.traced {
		return -1
	}
	parent := -1
	if n := len(p.stack); n > 0 {
		parent = p.stack[n-1]
	}
	id := len(p.spans)
	p.spans = append(p.spans, span{ID: id, Parent: parent, Name: name})
	p.stack = append(p.stack, id)
	return id
}

func (p *pass) close(id int, start time.Time, d time.Duration, ctr map[string]int64, alloc uint64) {
	if id < 0 {
		return
	}
	s := &p.spans[id]
	s.StartNs = start.Sub(p.t0).Nanoseconds()
	s.EndNs = s.StartNs + d.Nanoseconds()
	s.Counters = ctr
	s.AllocBytes = alloc
	p.stack = p.stack[:len(p.stack)-1]
}

// first returns the first duration recorded under name (0 if none).
func (p *pass) first(name string) time.Duration {
	if ds := p.durs[name]; len(ds) > 0 {
		return ds[0]
	}
	return 0
}

// counter sums a counter delta over the spans named name.
func (p *pass) counter(name, ctr string) int64 {
	var v int64
	for i := range p.spans {
		if p.spans[i].Name == name {
			v += p.spans[i].Counters[ctr]
		}
	}
	return v
}

// selfTimes returns each layer's self time in the pass: every span's
// duration less the part its child spans cover, summed by layer. The
// values add up to the root span's duration.
func (p *pass) selfTimes() map[string]time.Duration {
	self := map[string]time.Duration{}
	child := make([]time.Duration, len(p.spans))
	for i := range p.spans {
		if par := p.spans[i].Parent; par >= 0 {
			child[par] += p.spans[i].dur()
		}
	}
	for i := range p.spans {
		self[p.spans[i].layer()] += p.spans[i].dur() - child[i]
	}
	return self
}

// counterDelta returns the nonzero differences between two registry
// snapshots: counters by name, histograms as name_sum and name_count.
func counterDelta(a, b obs.Snapshot) map[string]int64 {
	out := map[string]int64{}
	for name, v := range b.Counters {
		if d := v - a.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	for name, h := range b.Histograms {
		h0 := a.Histograms[name]
		if d := h.Count - h0.Count; d != 0 {
			out[name+"_count"] = d
			out[name+"_sum"] = h.Sum - h0.Sum
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
