// Command acoload is the load generator for the antgpud solve service. It
// drives many concurrent clients through the full submit→poll/stream→
// result cycle, measures end-to-end job latency percentiles, and — when it
// hosts the service itself — verifies that a graceful drain completes
// every in-flight job.
//
// Usage:
//
//	acoload                                    # self-hosted service, defaults
//	acoload -clients 32 -requests 500          # the acceptance workload
//	acoload -addr 127.0.0.1:8080 -requests 200 # against a running antgpud
//	acoload -json BENCH_service.json           # write the benchmark report
//
// Every Nth request follows the job over the SSE event stream instead of
// polling, so the stream path is exercised under load too. 429 responses
// (admission control or rate limits) are retried with backoff and counted,
// not treated as failures. The drain phase — self-hosted mode only, since
// a remote antgpud drains on SIGTERM — submits a final wave, drains the
// service, and reports how many of those in-flight jobs completed versus
// dropped; the acceptance bar is zero dropped.
//
// With -rate the harness switches from closed-loop to a fixed-rate
// open-loop schedule: request i is due at start + i/rate, a client sleeps
// until then if it is early, and the corrected job latency is measured
// from that intended send time rather than the actual one. A closed-loop
// harness under-reports tail latency by coordinated omission — when every
// client is stuck inside a slow request, the load it would have offered is
// silently omitted and the delay those requests would have seen never
// enters the histogram. The legacy columns (measured from actual send) are
// kept alongside for comparison with earlier BENCH_service.json files.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antgpu"
	"antgpu/internal/metrics"
	"antgpu/internal/service"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acoload:", err)
		os.Exit(1)
	}
}

// report is the BENCH_service.json schema.
type report struct {
	Benchmark     string  `json:"benchmark"` // always "service"
	Instance      string  `json:"instance"`
	Iterations    int     `json:"iterations"`
	Clients       int     `json:"clients"`
	Requests      int     `json:"requests"`
	Completed     int     `json:"completed"`
	Failed        int     `json:"failed"`
	Rejected429   int64   `json:"rejected_429"`
	Streamed      int64   `json:"streamed"`
	WallSeconds   float64 `json:"wall_seconds"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// ScheduledRPS is the -rate open-loop schedule; zero means the legacy
	// closed-loop mode, where CorrectedJobLatency is absent.
	ScheduledRPS float64 `json:"scheduled_rps,omitempty"`
	// JobLatency and SubmitLatency are measured from the actual send — the
	// legacy columns, subject to coordinated omission under overload.
	JobLatency    latencySum `json:"job_latency_seconds"`
	SubmitLatency latencySum `json:"submit_latency_seconds"`
	// CorrectedJobLatency is measured from each request's intended send
	// time on the fixed-rate schedule — the coordinated-omission-corrected
	// view of the same jobs.
	CorrectedJobLatency *latencySum   `json:"corrected_job_latency_seconds,omitempty"`
	Drain               *drainSummary `json:"drain,omitempty"`
	// NumCPU and GoMaxProcs record the host acoload ran on, which in
	// self-hosted mode is also the service's.
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`
}

type latencySum struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type drainSummary struct {
	InFlight  int     `json:"inflight"`
	Completed int     `json:"completed"`
	Dropped   int     `json:"dropped"`
	Seconds   float64 `json:"seconds"`
}

func run(args []string, stdout io.Writer) error {
	fs := newFlags()
	if err := fs.fs.Parse(args); err != nil {
		return err
	}
	f := fs
	if *f.clients < 1 || *f.requests < 1 {
		return fmt.Errorf("-clients and -requests must be positive")
	}

	base := "http://" + *f.addr
	var svc *service.Service
	if *f.addr == "" {
		// Self-hosted: boot the full antgpud stack in-process so the drain
		// phase can be driven and verified.
		reg := antgpu.NewMetrics()
		pool := antgpu.NewPool(antgpu.PoolOptions{Workers: *f.workers, Metrics: reg})
		// Flight recorder without a stream: the harness verifies every job's
		// /v1/jobs/{id}/log carries its request ID, without the log volume
		// of a full stream under load.
		lg := antgpu.NewLogger(nil, antgpu.LoggerOptions{Flight: antgpu.NewFlightRecorder(0)})
		svc = service.New(service.Options{
			Pool:          pool,
			Metrics:       reg,
			MaxQueueDepth: *f.maxQueue,
			Logger:        lg,
		})
		srv, err := metrics.ServeHandler("127.0.0.1:0", svc.Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		base = "http://" + srv.Addr()
		fmt.Fprintf(stdout, "acoload: self-hosted service on %s (workers=%d maxqueue=%d)\n",
			base, pool.Workers(), svc.MaxQueueDepth())
	}

	rep := report{
		Benchmark:  "service",
		Instance:   *f.bench,
		Iterations: *f.iters,
		Clients:    *f.clients,
		Requests:   *f.requests,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	body := fmt.Sprintf(`{"benchmark":%q,"iterations":%d}`, *f.bench, *f.iters)

	// The measured phase: clients pull request indices off a shared counter
	// until the budget is spent. With -rate, each index carries an intended
	// send time on the fixed-rate schedule; a client that falls behind does
	// not sleep, and the corrected latency keeps counting from the time the
	// request should have been sent.
	var (
		next     atomic.Int64
		rejected atomic.Int64
		streamed atomic.Int64
		mu       sync.Mutex
		jobLats  []float64
		subLats  []float64
		corLats  []float64
		failures []string
	)
	start := time.Now()
	var pc *pacer
	if *f.rate > 0 {
		pc = newPacer(start, *f.rate)
	}
	var wg sync.WaitGroup
	for c := 0; c < *f.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &client{
				base:     base,
				id:       fmt.Sprintf("acoload-%d", c),
				http:     &http.Client{Timeout: 2 * time.Minute},
				rej429:   &rejected,
				checkLog: svc != nil,
			}
			for {
				i := next.Add(1) - 1
				if i >= int64(*f.requests) {
					return
				}
				var intended time.Time
				if pc != nil {
					intended = pc.intended(i)
					if d := time.Until(intended); d > 0 {
						time.Sleep(d)
					}
				}
				useSSE := *f.sseEvery > 0 && (i+1)%int64(*f.sseEvery) == 0
				jobLat, subLat, err := cl.solve(body, useSSE)
				mu.Lock()
				if err != nil {
					failures = append(failures, err.Error())
				} else {
					jobLats = append(jobLats, jobLat.Seconds())
					subLats = append(subLats, subLat.Seconds())
					if pc != nil {
						corLats = append(corLats, time.Since(intended).Seconds())
					}
				}
				mu.Unlock()
				if err == nil && useSSE {
					streamed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	rep.WallSeconds = time.Since(start).Seconds()
	rep.Completed = len(jobLats)
	rep.Failed = len(failures)
	rep.Rejected429 = rejected.Load()
	rep.Streamed = streamed.Load()
	if rep.WallSeconds > 0 {
		rep.ThroughputRPS = float64(rep.Completed) / rep.WallSeconds
	}
	rep.JobLatency = summarise(jobLats)
	rep.SubmitLatency = summarise(subLats)
	if pc != nil {
		rep.ScheduledRPS = *f.rate
		cs := summarise(corLats)
		rep.CorrectedJobLatency = &cs
	}
	for i, msg := range failures {
		if i == 5 {
			fmt.Fprintf(stdout, "acoload: ... and %d more failures\n", len(failures)-5)
			break
		}
		fmt.Fprintf(stdout, "acoload: request failed: %s\n", msg)
	}

	// Drain phase: submit one last wave, drain, and count survivors.
	if svc != nil && *f.drainWave > 0 {
		ds, err := drainPhase(svc, base, body, *f.drainWave)
		if err != nil {
			return err
		}
		rep.Drain = ds
	}

	fmt.Fprintf(stdout,
		"acoload: %d/%d requests ok in %.2fs (%.1f req/s), %d rejected-then-retried, %d streamed\n",
		rep.Completed, rep.Requests, rep.WallSeconds, rep.ThroughputRPS, rep.Rejected429, rep.Streamed)
	fmt.Fprintf(stdout, "acoload: job latency p50=%.4fs p95=%.4fs p99=%.4fs max=%.4fs\n",
		rep.JobLatency.P50, rep.JobLatency.P95, rep.JobLatency.P99, rep.JobLatency.Max)
	if rep.CorrectedJobLatency != nil {
		l := rep.CorrectedJobLatency
		fmt.Fprintf(stdout, "acoload: corrected (from intended send at %.1f req/s) p50=%.4fs p95=%.4fs p99=%.4fs max=%.4fs\n",
			rep.ScheduledRPS, l.P50, l.P95, l.P99, l.Max)
	}
	if rep.Drain != nil {
		fmt.Fprintf(stdout, "acoload: drain completed %d/%d in-flight jobs, %d dropped\n",
			rep.Drain.Completed, rep.Drain.InFlight, rep.Drain.Dropped)
	}

	if *f.jsonOut != "" {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		if err := os.WriteFile(*f.jsonOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "acoload: wrote %s\n", *f.jsonOut)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d requests failed", rep.Failed)
	}
	if rep.Drain != nil && rep.Drain.Dropped > 0 {
		return fmt.Errorf("drain dropped %d in-flight jobs", rep.Drain.Dropped)
	}
	return nil
}

type flags struct {
	fs        *flag.FlagSet
	addr      *string
	clients   *int
	requests  *int
	bench     *string
	iters     *int
	workers   *int
	maxQueue  *int
	sseEvery  *int
	drainWave *int
	rate      *float64
	jsonOut   *string
}

func newFlags() *flags {
	fs := flag.NewFlagSet("acoload", flag.ContinueOnError)
	return &flags{
		fs:       fs,
		addr:     fs.String("addr", "", "antgpud address to load (empty = self-host the service in-process)"),
		clients:  fs.Int("clients", 32, "concurrent clients"),
		requests: fs.Int("requests", 500, "total requests across all clients"),
		bench:    fs.String("benchmark", "att48", "benchmark instance each request solves"),
		iters:    fs.Int("iterations", 5, "iterations per solve"),
		workers:  fs.Int("workers", 0, "solve workers in self-hosted mode (0 = GOMAXPROCS)"),
		maxQueue: fs.Int("maxqueue", -1, "admission depth in self-hosted mode (-1 = unbounded)"),
		sseEvery: fs.Int("sse-every", 4, "follow every Nth request over SSE instead of polling (0 = never)"),
		drainWave: fs.Int("drainwave", 16, "in-flight jobs submitted before the graceful-drain check "+
			"(self-hosted mode; 0 = skip)"),
		rate: fs.Float64("rate", 0, "offered load in requests/second on a fixed open-loop schedule; "+
			"latency is additionally measured from each request's intended send time, correcting "+
			"for coordinated omission (0 = legacy closed-loop)"),
		jsonOut: fs.String("json", "", "write the benchmark report to this file (e.g. BENCH_service.json)"),
	}
}

// pacer maps request indices to their intended send times on a fixed-rate
// open-loop schedule: request i is due at start + i/rate. Latency measured
// from the intended time instead of the actual send corrects for
// coordinated omission — in a closed-loop harness a slow request silently
// suppresses the requests that were due while every client was blocked,
// so exactly the intervals that should dominate the tail never produce a
// sample.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func newPacer(start time.Time, rps float64) *pacer {
	return &pacer{start: start, interval: time.Duration(float64(time.Second) / rps)}
}

// intended returns the schedule's send time for the i-th request
// (0-based). The schedule is fixed at start: a backlog never shifts the
// due times of later requests.
func (p *pacer) intended(i int64) time.Time {
	return p.start.Add(time.Duration(i) * p.interval)
}

// client drives one load-generation client identity.
type client struct {
	base   string
	id     string
	http   *http.Client
	rej429 *atomic.Int64
	// checkLog additionally fetches each completed job's flight-recorder
	// log and verifies every line carries the request's correlation ID —
	// self-hosted mode only, where the flight recorder is known to be on.
	checkLog bool
	seq      atomic.Int64
}

// solve runs one request to a terminal state and returns (job latency,
// submit latency). Job latency spans first submit attempt to observed
// terminal state, so retry backoff after 429s is counted against the
// service — that is the latency a real client experiences. Every request
// sends a unique X-Request-ID and fails if the service does not echo it
// back; with checkLog the job's log lines must all carry it too.
func (c *client) solve(body string, useSSE bool) (jobLat, subLat time.Duration, err error) {
	start := time.Now()
	rid := fmt.Sprintf("%s-r%d", c.id, c.seq.Add(1))
	id, subLat, err := c.submit(body, rid)
	if err != nil {
		return 0, 0, err
	}
	var state string
	if useSSE {
		state, err = c.follow(id)
	} else {
		state, err = c.poll(id)
	}
	if err != nil {
		return 0, 0, err
	}
	if state != "done" {
		return 0, 0, fmt.Errorf("job %s ended %q", id, state)
	}
	if c.checkLog {
		if err := c.verifyJobLog(id, rid); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(start), subLat, nil
}

// submit POSTs the solve with the request ID, retrying 429s with backoff,
// and returns the job ID and the accepted POST's round-trip time. The 202's
// X-Request-ID header and job status must both echo the sent ID.
func (c *client) submit(body, rid string) (string, time.Duration, error) {
	backoff := 10 * time.Millisecond
	for attempt := 0; ; attempt++ {
		t0 := time.Now()
		req, err := http.NewRequest(http.MethodPost, c.base+"/v1/solve", strings.NewReader(body))
		if err != nil {
			return "", 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Client-ID", c.id)
		req.Header.Set("X-Request-ID", rid)
		resp, err := c.http.Do(req)
		if err != nil {
			return "", 0, err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		rtt := time.Since(t0)
		switch resp.StatusCode {
		case http.StatusAccepted:
			if got := resp.Header.Get("X-Request-ID"); got != rid {
				return "", 0, fmt.Errorf("X-Request-ID echoed as %q, sent %q", got, rid)
			}
			var st struct {
				ID        string `json:"id"`
				RequestID string `json:"request_id"`
			}
			if err := json.Unmarshal(b, &st); err != nil || st.ID == "" {
				return "", 0, fmt.Errorf("submit response %q: %v", b, err)
			}
			if st.RequestID != rid {
				return "", 0, fmt.Errorf("job %s request_id %q, sent %q", st.ID, st.RequestID, rid)
			}
			return st.ID, rtt, nil
		case http.StatusTooManyRequests:
			c.rej429.Add(1)
			if attempt > 200 {
				return "", 0, fmt.Errorf("still overloaded after %d retries", attempt)
			}
			time.Sleep(backoff)
			if backoff < 500*time.Millisecond {
				backoff *= 2
			}
		default:
			return "", 0, fmt.Errorf("submit status %d: %s", resp.StatusCode, b)
		}
	}
}

// verifyJobLog asserts the completed job's flight-recorder log is non-empty
// and that every line carries the request ID the job was submitted under.
func (c *client) verifyJobLog(id, rid string) error {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/log")
	if err != nil {
		return fmt.Errorf("job %s log: %w", id, err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s log status %d: %s", id, resp.StatusCode, b)
	}
	lines := 0
	for _, line := range strings.Split(string(b), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		lines++
		if !strings.Contains(line, `"request_id":"`+rid+`"`) {
			return fmt.Errorf("job %s log line lacks request ID %q: %s", id, rid, line)
		}
	}
	if lines == 0 {
		return fmt.Errorf("job %s log is empty", id)
	}
	return nil
}

// poll GETs the job until it reaches a terminal state.
func (c *client) poll(id string) (string, error) {
	for {
		resp, err := c.http.Get(c.base + "/v1/jobs/" + id)
		if err != nil {
			return "", err
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("poll status %d: %s", resp.StatusCode, b)
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return "", fmt.Errorf("poll body %q: %v", b, err)
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st.State, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// follow consumes the job's SSE stream until the terminal status event and
// returns the final state.
func (c *client) follow(id string) (string, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return "", fmt.Errorf("events status %d: %s", resp.StatusCode, b)
	}
	var evType, state string
	iterations := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, "event: "); ok {
			evType = v
			if evType == "iteration" {
				iterations++
			}
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && evType == "status" {
			var st struct {
				State string `json:"state"`
			}
			if err := json.Unmarshal([]byte(data), &st); err != nil {
				return "", fmt.Errorf("status event %q: %v", data, err)
			}
			state = st.State
		}
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("stream read: %v", err)
	}
	if state == "" {
		return "", fmt.Errorf("stream ended without a status event (%d iterations seen)", iterations)
	}
	return state, nil
}

// drainPhase submits a wave of jobs, gracefully drains the service, and
// verifies every in-flight job completed.
func drainPhase(svc *service.Service, base, body string, wave int) (*drainSummary, error) {
	cl := &client{base: base, id: "acoload-drain", http: &http.Client{Timeout: 2 * time.Minute}, rej429: new(atomic.Int64)}
	ids := make([]string, 0, wave)
	for i := 0; i < wave; i++ {
		id, _, err := cl.submit(body, fmt.Sprintf("acoload-drain-r%d", i))
		if err != nil {
			return nil, fmt.Errorf("drain wave submit %d: %w", i, err)
		}
		ids = append(ids, id)
	}
	t0 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := svc.Drain(ctx); err != nil {
		return nil, fmt.Errorf("drain: %w", err)
	}
	ds := &drainSummary{InFlight: wave, Seconds: time.Since(t0).Seconds()}
	for _, id := range ids {
		st, err := svc.Job(id)
		if err != nil {
			return nil, err
		}
		if st.State == service.StateDone {
			ds.Completed++
		} else {
			ds.Dropped++
		}
	}
	return ds, nil
}

// summarise computes the latency summary of a sample set.
func summarise(xs []float64) latencySum {
	if len(xs) == 0 {
		return latencySum{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pct := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(sorted)))) - 1
		if i < 0 {
			i = 0
		}
		return sorted[i]
	}
	sum := 0.0
	for _, x := range sorted {
		sum += x
	}
	return latencySum{
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
		Mean: sum / float64(len(sorted)),
		Max:  sorted[len(sorted)-1],
	}
}
