package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// jobTimeout bounds one job, submit to terminal event.
const jobTimeout = 60 * time.Second

// jobStatus is the part of the service's job record the benchmark reads.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Backend  string     `json:"backend"`
	Workers  int        `json:"workers"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
	Error    string     `json:"error"`
	Result   *struct {
		BestLen          int64   `json:"best_len"`
		BestTour         []int32 `json:"best_tour"`
		SimulatedSeconds float64 `json:"simulated_seconds"`
	} `json:"result"`
}

// outcome is what one job did, seen from the client.
type outcome struct {
	code    int           // HTTP status of the submit
	submit  time.Duration // POST round trip
	latency time.Duration // POST sent → terminal status event read
	events  int           // SSE events read, terminal one included
	doneAt  time.Time
	status  jobStatus
	ratio   float64 // best_len / greedy nearest-neighbour length
	err     error   // why the job counts as failed; nil when it passed
}

func (o *outcome) ok() bool { return o.err == nil }

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}
}

// runJob submits one job, follows its event stream to the terminal status
// event and checks the result.
func runJob(ctx context.Context, client *http.Client, base string, w *workload, j *job) outcome {
	var o outcome
	ctx, cancel := context.WithTimeout(ctx, jobTimeout)
	defer cancel()
	t0 := time.Now()
	o.err = o.follow(ctx, client, base, j.body, t0)
	if o.doneAt.IsZero() {
		o.doneAt = time.Now()
	}
	o.latency = o.doneAt.Sub(t0)
	if o.err == nil {
		o.err = o.check(w, j)
	}
	return o
}

func (o *outcome) follow(ctx context.Context, client *http.Client, base string, body []byte, t0 time.Time) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	var sub jobStatus
	err = json.NewDecoder(resp.Body).Decode(&sub)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.submit, o.code = time.Since(t0), resp.StatusCode
	if o.code != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d", o.code)
	}
	if err != nil {
		return fmt.Errorf("submit: decode: %w", err)
	}

	req, err = http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/jobs/"+sub.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err = client.Do(req)
	if err != nil {
		return fmt.Errorf("events: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	event := ""
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return fmt.Errorf("events: stream ended before the terminal status: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		switch {
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			o.events++
			if event != "status" {
				continue
			}
			o.doneAt = time.Now()
			if err := json.Unmarshal(line[len("data: "):], &o.status); err != nil {
				return fmt.Errorf("events: decode status: %w", err)
			}
			// Read the stream's end so the connection is reused.
			io.Copy(io.Discard, br)
			return nil
		}
	}
}

func (o *outcome) check(w *workload, j *job) error {
	st := &o.status
	if st.State != "done" {
		return fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.Backend != w.want {
		return fmt.Errorf("job %s ran on backend %q, want %q", st.ID, st.Backend, w.want)
	}
	if st.Result == nil || st.Started == nil || st.Finished == nil {
		return fmt.Errorf("job %s: done without result or timestamps", st.ID)
	}
	if err := j.inst.checkTour(st.Result.BestTour, st.Result.BestLen); err != nil {
		return fmt.Errorf("job %s: %w", st.ID, err)
	}
	o.ratio = float64(st.Result.BestLen) / float64(j.inst.nnLen)
	return nil
}

// dispatcher hands out measured job indices to closed-loop clients.
type dispatcher struct {
	ctx      context.Context // no new job once it is done
	mu       sync.Mutex
	next     int
	limit    int           // jobs available
	prefix   int           // indices dispatched however long they take, up to maxDur
	minDur   time.Duration // no new job past this, once the prefix is out
	maxDur   time.Duration // hard stop
	start    time.Time
	stopping bool
}

func (d *dispatcher) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el := time.Since(d.start)
	if d.stopping || d.ctx.Err() != nil || d.next >= d.limit || el >= d.maxDur || (el >= d.minDur && d.next >= d.prefix) {
		d.stopping = true
		return 0, false
	}
	d.next++
	return d.next - 1, true
}

// closedLoop runs clients that each submit their next job only after the
// previous one completed, until the dispatcher stops handing out jobs.
func closedLoop(clients int, d *dispatcher, run func(i int)) {
	var wg sync.WaitGroup
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for {
				i, ok := d.take()
				if !ok {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}
