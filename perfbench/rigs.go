package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"cachemodel/internal/dist"
	"cachemodel/internal/serve"
)

// httpRig serves a handler on a loopback port until stop.
type httpRig struct {
	base   string
	hs     *http.Server
	served chan error
}

func startHTTP(h http.Handler) (*httpRig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &httpRig{base: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, served: make(chan error, 1)}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// stop closes the listener and every connection, then waits for Serve to
// return.
func (r *httpRig) stop() error {
	err := r.hs.Close()
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// distRig is a fresh coordinator with n loopback-HTTP workers, so no unit
// dedup carries over between sweeps.
type distRig struct {
	c       *dist.Coordinator
	http    *httpRig
	workers []*dist.Worker
}

func startDist(n int) (*distRig, error) {
	c, err := dist.New(dist.Options{ShutdownWhenDone: true})
	if err != nil {
		return nil, err
	}
	h, err := startHTTP(c.Handler())
	if err != nil {
		c.Close()
		return nil, err
	}
	r := &distRig{c: c, http: h}
	for i := 0; i < n; i++ {
		w, err := dist.NewWorker(dist.WorkerOptions{
			Coordinator: h.base,
			ID:          fmt.Sprintf("perfbench-w%d", i),
			Poll:        20 * time.Millisecond,
		})
		if err != nil {
			r.stop()
			return nil, err
		}
		r.workers = append(r.workers, w)
	}
	return r, nil
}

// sweep submits spec and returns the merged rows once every worker has
// been told to shut down.
func (r *distRig) sweep(ctx context.Context, spec *dist.SweepSpec) ([]dist.Row, error) {
	st, err := r.c.AddSweep(ctx, spec)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(r.workers))
	for i, w := range r.workers {
		wg.Add(1)
		go func(i int, w *dist.Worker) {
			defer wg.Done()
			errs[i] = w.Run(ctx)
		}(i, w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := r.c.Wait(ctx, st.Sweep); err != nil {
		return nil, err
	}
	rep, err := r.c.Report(st.Sweep)
	if err != nil {
		return nil, err
	}
	return rep.Rows, nil
}

func (r *distRig) stop() error {
	return errors.Join(r.http.stop(), r.c.Close())
}

// serveRig is a fresh serve.Server behind a loopback port: one job worker,
// an empty result cache and no singleflight history.
type serveRig struct {
	s      *serve.Server
	http   *httpRig
	client *http.Client
}

func startServe() (*serveRig, error) {
	s, err := serve.New(serve.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	h, err := startHTTP(s.Handler())
	if err != nil {
		s.Drain(context.Background())
		return nil, err
	}
	// One connection at a time: submit, stream events, fetch the result.
	tr := &http.Transport{MaxConnsPerHost: 1}
	return &serveRig{s: s, http: h, client: &http.Client{Transport: tr}}, nil
}

// sweep posts req to /v1/sweep, follows the job's event stream to its
// terminal event and fetches the result, rendered as dist rows so the two
// can be compared byte for byte. It also returns the job's time from
// admission to its terminal event.
func (r *serveRig) sweep(ctx context.Context, req *serve.SweepRequest) ([]dist.Row, time.Duration, error) {
	var job time.Duration
	body, err := json.Marshal(req)
	if err != nil {
		return nil, job, err
	}
	var sub struct {
		Job string `json:"job"`
	}
	if err := r.do(ctx, http.MethodPost, "/v1/sweep", body, http.StatusAccepted, &sub); err != nil {
		return nil, job, err
	}
	job, err = r.waitDone(ctx, sub.Job)
	if err != nil {
		return nil, job, err
	}
	var got struct {
		Status string        `json:"status"`
		Result *serve.Result `json:"result"`
	}
	if err := r.do(ctx, http.MethodGet, "/v1/jobs/"+sub.Job, nil, http.StatusOK, &got); err != nil {
		return nil, job, err
	}
	if got.Status != string(serve.StatusDone) || got.Result == nil {
		return nil, job, fmt.Errorf("serve job %s ended %s", sub.Job, got.Status)
	}
	if e := got.Result.Error; e != nil {
		return nil, job, fmt.Errorf("serve job %s: %s: %s", sub.Job, e.Kind, e.Message)
	}
	rows := make([]dist.Row, len(got.Result.Candidates))
	for i, c := range got.Result.Candidates {
		rows[i] = serveRow(c)
	}
	return rows, job, nil
}

// waitDone reads the job's server-sent events until the terminal one and
// returns the job's elapsed time it reports.
func (r *serveRig) waitDone(ctx context.Context, id string) (time.Duration, error) {
	var job time.Duration
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.http.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return job, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return job, err
	}
	defer resp.Body.Close()
	// Read to the end of the stream, which the server closes after the
	// terminal event, so the connection is free for the next request.
	sc := bufio.NewScanner(resp.Body)
	terminal, found := false, false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			terminal = true
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && terminal && !found {
			var e serve.Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return job, err
			}
			job, found = time.Duration(e.ElapsedMs)*time.Millisecond, true
		}
	}
	if err := sc.Err(); err != nil {
		return job, err
	}
	if !found {
		return job, fmt.Errorf("serve job %s: event stream ended without a terminal event", id)
	}
	return job, nil
}

func (r *serveRig) do(ctx context.Context, method, path string, body []byte, want int, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, r.http.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d", method, path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (r *serveRig) stop(ctx context.Context) error {
	err := r.http.stop()
	r.client.CloseIdleConnections()
	return errors.Join(err, r.s.Drain(ctx))
}

// serveRow renders a serve candidate in the dist row form; both carry the
// same per-reference counts.
func serveRow(c serve.CandidateResult) dist.Row {
	row := dist.Row{Label: c.Label, CacheBytes: c.CacheBytes, LineBytes: c.LineBytes, Assoc: c.Assoc,
		MissRatioPct: c.MissRatioPct, EstimatedMisses: c.EstimatedMisses, Accesses: c.Accesses,
		Tier: c.Tier, Degraded: c.Degraded, Coverage: c.Coverage, Error: c.Error}
	for _, rr := range c.Refs {
		row.Refs = append(row.Refs, dist.RefRow{ID: rr.ID, Volume: rr.Volume, Analyzed: rr.Analyzed,
			Hits: rr.Hits, Cold: rr.Cold, Repl: rr.Repl, Tier: rr.Tier, Ratio: rr.Ratio})
	}
	return row
}
