package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"antgpu"
	"antgpu/internal/sched"
)

// newTestService builds a service over a fresh pool. workers bounds
// concurrency, maxQueue the admission depth.
func newTestService(t *testing.T, workers, maxQueue int, opts Options) (*Service, *antgpu.Metrics) {
	t.Helper()
	reg := antgpu.NewMetrics()
	opts.Pool = antgpu.NewPool(antgpu.PoolOptions{Workers: workers, Metrics: reg})
	if opts.Metrics == nil {
		opts.Metrics = reg
	}
	opts.MaxQueueDepth = maxQueue
	return New(opts), reg
}

// waitState polls a job until pred holds or the deadline passes.
func waitState(t *testing.T, s *Service, id string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestSubmitPollResult: the end-to-end happy path, including that the
// served result is byte-identical to a direct library solve of the same
// request.
func TestSubmitPollResult(t *testing.T) {
	s, _ := newTestService(t, 2, 0, Options{})
	st, err := s.Submit(context.Background(), "c1", SubmitRequest{
		Benchmark:   "att48",
		Iterations:  10,
		Params:      SubmitParams{Seed: 7},
		IncludeTour: true,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.State != StateQueued || st.ID == "" {
		t.Fatalf("submitted status = %+v", st)
	}
	final := waitState(t, s, st.ID, JobStatus.Terminal)
	if final.State != StateDone {
		t.Fatalf("job ended %s (%s), want done", final.State, final.Error)
	}
	if final.Result == nil || final.Result.BestLen <= 0 {
		t.Fatalf("missing result: %+v", final.Result)
	}
	if final.Result.Iterations != 10 {
		t.Errorf("observed %d iteration events, want 10", final.Result.Iterations)
	}
	if final.Started == nil || final.Finished == nil {
		t.Error("terminal status missing started/finished timestamps")
	}

	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	want, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 10, Params: antgpu.Params{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Result.BestLen != want.BestLen {
		t.Errorf("served best length %d != library solve %d", final.Result.BestLen, want.BestLen)
	}
	if len(final.Result.BestTour) != len(want.BestTour) {
		t.Fatalf("served tour has %d cities, want %d", len(final.Result.BestTour), len(want.BestTour))
	}
	for i := range want.BestTour {
		if final.Result.BestTour[i] != want.BestTour[i] {
			t.Fatalf("served tour diverges from library solve at position %d", i)
		}
	}
}

// TestStreamEventOrdering: the event feed delivers iterations 1..N in
// order, exactly one terminal status event last, and a replay after
// completion sees the identical sequence.
func TestStreamEventOrdering(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	const iters = 25
	st, err := s.Submit(context.Background(), "c1", SubmitRequest{
		Benchmark: "att48", Iterations: iters, Params: SubmitParams{Seed: 3},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	collect := func() []Event {
		var evs []Event
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Stream(ctx, st.ID, func(ev Event) error {
			evs = append(evs, ev)
			return nil
		}); err != nil {
			t.Fatalf("Stream: %v", err)
		}
		return evs
	}
	check := func(evs []Event) {
		t.Helper()
		if len(evs) != iters+1 {
			t.Fatalf("got %d events, want %d iterations + 1 status", len(evs), iters)
		}
		for i := 0; i < iters; i++ {
			ev := evs[i]
			if ev.Type != "iteration" || ev.Seq != i || ev.Iteration == nil {
				t.Fatalf("event %d malformed: %+v", i, ev)
			}
			if ev.Iteration.Iteration != i+1 {
				t.Fatalf("event %d carries iteration %d, want %d", i, ev.Iteration.Iteration, i+1)
			}
			if ev.Iteration.Best <= 0 || ev.Iteration.Mean < ev.Iteration.Best {
				t.Fatalf("event %d has implausible lengths: %+v", i, ev.Iteration)
			}
		}
		last := evs[iters]
		if last.Type != "status" || last.Status == nil || last.Status.State != StateDone {
			t.Fatalf("terminal event malformed: %+v", last)
		}
	}

	live := collect() // follows the job while it runs
	check(live)
	replay := collect() // replays after completion
	check(replay)
	for i := range live {
		if live[i].Seq != replay[i].Seq || live[i].Type != replay[i].Type {
			t.Fatalf("replay diverges from live stream at %d", i)
		}
	}
}

// longJob is a request that cannot complete within the test but cancels
// promptly (cancellation is checked between iterations).
func longJob() SubmitRequest {
	return SubmitRequest{Benchmark: "kroC100", Iterations: 100000}
}

// TestCancelMidSolve: a running job cancelled via the service ends in
// state cancelled, its stream terminates with that status, and the worker
// slot frees up for the next job.
func TestCancelMidSolve(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	st, err := s.Submit(context.Background(), "c1", longJob())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, func(j JobStatus) bool { return j.State == StateRunning })

	got, err := s.Cancel(st.ID)
	if err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if got.Terminal() && got.State != StateCancelled {
		t.Fatalf("cancel returned terminal state %s", got.State)
	}
	final := waitState(t, s, st.ID, JobStatus.Terminal)
	if final.State != StateCancelled {
		t.Fatalf("job ended %s, want cancelled", final.State)
	}
	// The stream of a cancelled job still terminates with its status.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var last Event
	if err := s.Stream(ctx, st.ID, func(ev Event) error { last = ev; return nil }); err != nil {
		t.Fatalf("Stream after cancel: %v", err)
	}
	if last.Type != "status" || last.Status.State != StateCancelled {
		t.Fatalf("stream ended with %+v, want cancelled status", last)
	}

	// Cancelling a terminal job is a no-op, not an error.
	if _, err := s.Cancel(st.ID); err != nil {
		t.Fatalf("Cancel(terminal): %v", err)
	}

	// The freed worker serves the next job.
	st2, err := s.Submit(context.Background(), "c1", SubmitRequest{Benchmark: "att48", Iterations: 5})
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	if final := waitState(t, s, st2.ID, JobStatus.Terminal); final.State != StateDone {
		t.Fatalf("follow-up job ended %s, want done", final.State)
	}
}

// TestOverloadRejects429: with one worker busy and the admission queue
// full, the next submit fails with ErrOverloaded (HTTP 429), and admission
// recovers once the queue drains.
func TestOverloadRejects429(t *testing.T) {
	const maxQueue = 2
	s, _ := newTestService(t, 1, maxQueue, Options{})
	ctx := context.Background()

	// One running job plus maxQueue queued ones saturate admission. The
	// queue slot is only released when a pool worker picks a job up, so
	// admission depth is deterministic here: the single worker is occupied
	// by the first job.
	ids := make([]string, 0, maxQueue+1)
	first, err := s.Submit(ctx, "c1", longJob())
	if err != nil {
		t.Fatalf("Submit running job: %v", err)
	}
	ids = append(ids, first.ID)
	waitState(t, s, first.ID, func(j JobStatus) bool { return j.State == StateRunning })
	for i := 0; i < maxQueue; i++ {
		st, err := s.Submit(ctx, "c1", longJob())
		if err != nil {
			t.Fatalf("Submit queued job %d: %v", i, err)
		}
		ids = append(ids, st.ID)
	}

	if _, err := s.Submit(ctx, "c1", longJob()); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated submit returned %v, want ErrOverloaded", err)
	}
	if d := s.QueueDepth(); d != maxQueue {
		t.Errorf("queue depth %d after rejection, want %d", d, maxQueue)
	}

	// Cancelling the queued jobs frees admission.
	for _, id := range ids[1:] {
		if _, err := s.Cancel(id); err != nil {
			t.Fatalf("Cancel(%s): %v", id, err)
		}
	}
	for _, id := range ids[1:] {
		waitState(t, s, id, JobStatus.Terminal)
	}
	if _, err := s.Submit(ctx, "c1", SubmitRequest{Benchmark: "att48", Iterations: 1}); err != nil {
		t.Fatalf("submit after queue drained: %v", err)
	}
	s.CancelAll()
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestRateLimit: a client burning through its bucket gets ErrRateLimited;
// tokens refill with time; other clients are unaffected.
func TestRateLimit(t *testing.T) {
	clock := time.Unix(1000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}

	s, _ := newTestService(t, 2, -1, Options{RatePerSec: 1, Burst: 2, now: now})
	req := SubmitRequest{Benchmark: "att48", Iterations: 1}
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := s.Submit(ctx, "greedy", req); err != nil {
			t.Fatalf("submit %d within burst: %v", i, err)
		}
	}
	if _, err := s.Submit(ctx, "greedy", req); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("burst-exhausted submit returned %v, want ErrRateLimited", err)
	}
	if _, err := s.Submit(ctx, "polite", req); err != nil {
		t.Fatalf("other client was limited too: %v", err)
	}
	advance(1100 * time.Millisecond)
	if _, err := s.Submit(ctx, "greedy", req); err != nil {
		t.Fatalf("submit after refill: %v", err)
	}
	dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}

// TestGracefulDrain: draining stops admission immediately but completes
// every in-flight job — running and queued alike — with zero drops.
func TestGracefulDrain(t *testing.T) {
	const jobs = 8
	s, _ := newTestService(t, 2, -1, Options{})
	ctx := context.Background()
	ids := make([]string, jobs)
	for i := range ids {
		st, err := s.Submit(ctx, fmt.Sprintf("c%d", i), SubmitRequest{
			Benchmark: "att48", Iterations: 15, Params: SubmitParams{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	dctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if !s.Draining() {
		t.Error("Draining() false after Drain")
	}
	if _, err := s.Submit(ctx, "late", SubmitRequest{Benchmark: "att48"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit returned %v, want ErrDraining", err)
	}
	for _, id := range ids {
		st, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if st.State != StateDone {
			t.Errorf("job %s dropped by drain: state %s (%s)", id, st.State, st.Error)
		}
		if st.Result == nil || st.Result.Iterations != 15 {
			t.Errorf("job %s finished without its full convergence feed: %+v", id, st.Result)
		}
	}
}

// TestSubmitValidation: malformed requests are rejected with ErrBadRequest
// before spending a queue slot.
func TestSubmitValidation(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	ctx := context.Background()
	cases := []SubmitRequest{
		{},                  // no instance
		{Benchmark: "nope"}, // unknown benchmark
		{Benchmark: "att48", TSPLIB: "x"},
		{TSPLIB: "not a tsplib file"},
		{Benchmark: "att48", Iterations: -1},
		{Benchmark: "att48", Backend: "tpu"},
		{Benchmark: "att48", Algorithm: "ga"},
		{Benchmark: "att48", Algorithm: "acs", LocalSearch: true},
		{Benchmark: "att48", Optimum: -5},
		{Benchmark: "att48", Params: SubmitParams{Ants: -1}},
	}
	for i, req := range cases {
		if _, err := s.Submit(ctx, "c1", req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("case %d (%+v): got %v, want ErrBadRequest", i, req, err)
		}
	}
	if d := s.QueueDepth(); d != 0 {
		t.Errorf("validation failures leaked %d queue slots", d)
	}
	if _, err := s.Job("job-404"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown job lookup returned %v, want ErrNotFound", err)
	}
}

// TestTSPLIBUpload: an inline TSPLIB instance solves end to end.
func TestTSPLIBUpload(t *testing.T) {
	tsplib := `NAME: square4
TYPE: TSP
DIMENSION: 4
EDGE_WEIGHT_TYPE: EUC_2D
NODE_COORD_SECTION
1 0 0
2 0 10
3 10 10
4 10 0
EOF
`
	s, _ := newTestService(t, 1, 0, Options{})
	st, err := s.Submit(context.Background(), "c1", SubmitRequest{
		TSPLIB: tsplib, Iterations: 5, IncludeTour: true,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	final := waitState(t, s, st.ID, JobStatus.Terminal)
	if final.State != StateDone {
		t.Fatalf("upload job ended %s (%s)", final.State, final.Error)
	}
	if final.Result.BestLen != 40 {
		t.Errorf("square tour length %d, want 40", final.Result.BestLen)
	}
}

// TestHTTPEndToEnd drives the full HTTP adapter: submit, poll, SSE, list,
// cancel mapping, health, and error statuses.
func TestHTTPEndToEnd(t *testing.T) {
	s, _ := newTestService(t, 2, 0, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /v1/solve: %v", err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, b
	}

	// Submit.
	resp, body := post(`{"benchmark":"att48","iterations":8,"params":{"seed":11},"optimum":10628}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("submit body: %v", err)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+st.ID {
		t.Errorf("Location = %q", loc)
	}

	// SSE stream until done.
	sse, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE Content-Type = %q", ct)
	}
	var types []string
	var lastData string
	sc := bufio.NewScanner(sse.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			types = append(types, ev)
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			lastData = data
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("SSE read: %v", err)
	}
	if len(types) != 9 {
		t.Fatalf("SSE delivered %d events, want 8 iterations + 1 status: %v", len(types), types)
	}
	for i := 0; i < 8; i++ {
		if types[i] != "iteration" {
			t.Fatalf("SSE event %d is %q, want iteration", i, types[i])
		}
	}
	if types[8] != "status" {
		t.Fatalf("SSE final event is %q, want status", types[8])
	}
	var finalSt JobStatus
	if err := json.Unmarshal([]byte(lastData), &finalSt); err != nil {
		t.Fatalf("SSE status payload: %v", err)
	}
	if finalSt.State != StateDone || finalSt.Result == nil {
		t.Fatalf("SSE terminal status %+v", finalSt)
	}

	// Poll agrees with the stream.
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + st.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	b2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var polled JobStatus
	if err := json.Unmarshal(b2, &polled); err != nil {
		t.Fatalf("poll body: %v", err)
	}
	if polled.State != StateDone || polled.Result.BestLen != finalSt.Result.BestLen {
		t.Fatalf("poll %+v disagrees with stream %+v", polled, finalSt)
	}

	// List includes the job.
	resp3, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatalf("GET jobs: %v", err)
	}
	var list []JobStatus
	if err := json.NewDecoder(resp3.Body).Decode(&list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	resp3.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Cancel maps through (terminal job: no-op 200).
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+st.ID, nil)
	resp4, err := http.DefaultClient.Do(delReq)
	if err != nil {
		t.Fatalf("DELETE job: %v", err)
	}
	io.Copy(io.Discard, resp4.Body)
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp4.StatusCode)
	}

	// Errors map to their statuses.
	if resp, _ := post(`{"benchmark":"nope"}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad benchmark → %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON → %d, want 400", resp.StatusCode)
	}
	resp5, err := http.Get(srv.URL + "/v1/jobs/job-404")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp5.Body)
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job → %d, want 404", resp5.StatusCode)
	}
	resp6, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp6.Body)
	resp6.Body.Close()
	if resp6.StatusCode != http.StatusOK {
		t.Errorf("healthz → %d, want 200", resp6.StatusCode)
	}
}

// TestHTTP429AndDrainStatus: overload maps to 429 + Retry-After, drain to
// 503 on submit and healthz.
func TestHTTP429AndDrainStatus(t *testing.T) {
	s, _ := newTestService(t, 1, 1, Options{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	submit := func() (*http.Response, JobStatus) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"benchmark":"kroC100","iterations":100000}`))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		var st JobStatus
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		_ = json.Unmarshal(b, &st)
		return resp, st
	}

	resp1, st1 := submit()
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit status %d", resp1.StatusCode)
	}
	waitState(t, s, st1.ID, func(j JobStatus) bool { return j.State == StateRunning })
	resp2, st2 := submit() // fills the queue (depth 1)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp2.StatusCode)
	}
	resp3, _ := submit()
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit status %d, want 429", resp3.StatusCode)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Cancel everything, then drain and observe 503s.
	for _, id := range []string{st1.ID, st2.ID} {
		if _, err := s.Cancel(id); err != nil {
			t.Fatalf("Cancel: %v", err)
		}
	}
	dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp4, _ := submit()
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining submit status %d, want 503", resp4.StatusCode)
	}
	resp5, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp5.Body)
	resp5.Body.Close()
	if resp5.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d, want 503", resp5.StatusCode)
	}
}

// TestConcurrentSubmitters hammers one service from many goroutines — the
// -race companion to the load generator.
func TestConcurrentSubmitters(t *testing.T) {
	s, _ := newTestService(t, 4, -1, Options{})
	const clients, per = 8, 4
	var wg sync.WaitGroup
	errCh := make(chan error, clients*per)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st, err := s.Submit(context.Background(), fmt.Sprintf("c%d", c), SubmitRequest{
					Benchmark: "att48", Iterations: 5, Params: SubmitParams{Seed: uint64(c*per + i + 1)},
				})
				if err != nil {
					errCh <- err
					continue
				}
				final := waitState(t, s, st.ID, JobStatus.Terminal)
				if final.State != StateDone {
					errCh <- fmt.Errorf("job %s: %s (%s)", st.ID, final.State, final.Error)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := len(s.Jobs()); got != clients*per {
		t.Errorf("service recorded %d jobs, want %d", got, clients*per)
	}
}

// TestJobRetentionCap: a capped server stays capped under churn. Terminal
// jobs past MaxJobs are evicted oldest-first and then report ErrNotFound;
// non-terminal jobs are never evicted, however old.
func TestJobRetentionCap(t *testing.T) {
	const maxJobs = 8
	s, reg := newTestService(t, 2, -1, Options{MaxJobs: maxJobs, JobTTL: -1})

	// Submitted first, so it is always the oldest record — but it stays
	// running throughout the churn and must survive every eviction pass.
	running, err := s.Submit(context.Background(), "c1", longJob())
	if err != nil {
		t.Fatalf("Submit(long): %v", err)
	}
	waitState(t, s, running.ID, func(j JobStatus) bool { return j.State == StateRunning })

	var ids []string
	for i := 0; i < 5*maxJobs; i++ {
		st, err := s.Submit(context.Background(), "c1", SubmitRequest{
			Benchmark: "att48", Iterations: 1, Params: SubmitParams{Seed: uint64(i + 1)},
		})
		if err != nil {
			t.Fatalf("Submit #%d: %v", i, err)
		}
		ids = append(ids, st.ID)
		waitState(t, s, st.ID, JobStatus.Terminal)
		if n := len(s.Jobs()); n > maxJobs {
			t.Fatalf("after %d churned jobs the map holds %d records, cap is %d", i+1, n, maxJobs)
		}
	}

	// The oldest churned jobs are gone, the newest are still pollable.
	if _, err := s.Job(ids[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest churned job still present: %v", err)
	}
	if _, err := s.Job(ids[len(ids)-1]); err != nil {
		t.Fatalf("newest churned job evicted: %v", err)
	}
	// The long-running job is older than everything evicted, yet survives.
	st, err := s.Job(running.ID)
	if err != nil || st.State != StateRunning {
		t.Fatalf("running job evicted or not running: %v %v", st.State, err)
	}
	if f := reg.Snapshot().Family("antgpu_service_jobs_evicted_total"); f == nil || f.Series[0].Value == 0 {
		t.Fatal("eviction counter not incremented")
	}

	if _, err := s.Cancel(running.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitState(t, s, running.ID, JobStatus.Terminal)
}

// TestJobRetentionTTL: terminal jobs expire JobTTL after finishing, on a
// fake clock, and expiry is visible from Jobs() without new submissions.
func TestJobRetentionTTL(t *testing.T) {
	cur := time.Unix(1700000000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return cur }
	advance := func(d time.Duration) { mu.Lock(); cur = cur.Add(d); mu.Unlock() }

	s, _ := newTestService(t, 2, -1, Options{JobTTL: time.Minute, MaxJobs: -1, now: clock})
	st, err := s.Submit(context.Background(), "c1", SubmitRequest{Benchmark: "att48", Iterations: 1})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, st.ID, JobStatus.Terminal)

	advance(59 * time.Second)
	if n := len(s.Jobs()); n != 1 {
		t.Fatalf("job evicted before its TTL: %d records", n)
	}
	advance(2 * time.Second)
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("job survived its TTL: %d records", n)
	}
	if _, err := s.Job(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired job lookup: %v, want ErrNotFound", err)
	}
}

// TestAutoBackendSelection: a submit that omits the backend gets one picked
// from the instance size and ant count, the choice lands in the job JSON
// (backend + backend_auto) and in the selection counter, and explicit
// backends stay untouched.
func TestAutoBackendSelection(t *testing.T) {
	s, reg := newTestService(t, 1, -1, Options{})
	submit := func(req SubmitRequest) JobStatus {
		t.Helper()
		st, err := s.Submit(context.Background(), "c1", req)
		if err != nil {
			t.Fatalf("Submit(%+v): %v", req, err)
		}
		return st
	}

	// Small instance, default ants (= n): the reference colony wins.
	st := submit(SubmitRequest{Benchmark: "att48", Iterations: 1})
	if st.Backend != "cpu" || !st.BackendAuto {
		t.Fatalf("att48 default ants picked %s (auto=%v), want auto cpu", st.Backend, st.BackendAuto)
	}
	if st.Workers != 0 {
		t.Fatalf("cpu job reports %d workers, want 0", st.Workers)
	}

	// Same instance, fewer ants than cities: the matrix kernels win.
	st = submit(SubmitRequest{Benchmark: "att48", Iterations: 1, Params: SubmitParams{Ants: 8}})
	if st.Backend != "tensor" || !st.BackendAuto {
		t.Fatalf("att48/8-ant submit picked %s (auto=%v), want auto tensor", st.Backend, st.BackendAuto)
	}
	wantShare := sched.WorkerShare(runtime.GOMAXPROCS(0), s.pool.Workers())
	if st.Workers != wantShare {
		t.Fatalf("auto-sized workers = %d, want WorkerShare = %d", st.Workers, wantShare)
	}

	// Large instance: tensor regardless of ant count.
	st = submit(SubmitRequest{Benchmark: "kroC100", Iterations: 1})
	if st.Backend != "tensor" || !st.BackendAuto {
		t.Fatalf("kroC100 submit picked %s (auto=%v), want auto tensor", st.Backend, st.BackendAuto)
	}

	// Algorithms the tensor engine doesn't implement fall back to cpu even
	// on a large instance.
	st = submit(SubmitRequest{Benchmark: "kroC100", Iterations: 1, Algorithm: "eas"})
	if st.Backend != "cpu" || !st.BackendAuto {
		t.Fatalf("kroC100/eas submit picked %s (auto=%v), want auto cpu", st.Backend, st.BackendAuto)
	}

	// An explicit backend is honoured verbatim and never counted as auto.
	st = submit(SubmitRequest{Benchmark: "kroC100", Iterations: 1, Backend: "cpu"})
	if st.Backend != "cpu" || st.BackendAuto {
		t.Fatalf("explicit cpu submit reported %s (auto=%v)", st.Backend, st.BackendAuto)
	}

	// An explicit worker count on a tensor job passes straight through.
	st = submit(SubmitRequest{Benchmark: "kroC100", Iterations: 1, Backend: "tensor",
		Params: SubmitParams{Workers: 2}})
	if st.Workers != 2 || st.BackendAuto {
		t.Fatalf("explicit tensor submit reported workers=%d auto=%v, want 2/false", st.Workers, st.BackendAuto)
	}

	// Negative worker counts are structural errors, rejected at admission.
	if _, err := s.Submit(context.Background(), "c1", SubmitRequest{
		Benchmark: "att48", Params: SubmitParams{Workers: -1},
	}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("workers=-1 admission error = %v, want ErrBadRequest", err)
	}

	f := reg.Snapshot().Family("antgpu_service_backend_selected_total")
	if f == nil {
		t.Fatal("selection counter family missing")
	}
	got := map[string]float64{}
	for _, sr := range f.Series {
		got[sr.Labels["backend"]] = sr.Value
	}
	if got["cpu"] != 2 || got["tensor"] != 2 {
		t.Fatalf("selection counts = %v, want cpu:2 tensor:2", got)
	}
	s.Drain(context.Background())
}

// TestAutoBackendResultMatchesExplicit: the auto-picked tensor backend
// solves identically to an explicit tensor submit — selection changes
// where the job runs, never what it computes.
func TestAutoBackendResultMatchesExplicit(t *testing.T) {
	s, _ := newTestService(t, 1, 0, Options{})
	run := func(req SubmitRequest) int64 {
		t.Helper()
		st, err := s.Submit(context.Background(), "c1", req)
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		final := waitState(t, s, st.ID, JobStatus.Terminal)
		if final.State != StateDone {
			t.Fatalf("job ended %s (%s)", final.State, final.Error)
		}
		return final.Result.BestLen
	}
	autoLen := run(SubmitRequest{Benchmark: "kroC100", Iterations: 5, Params: SubmitParams{Seed: 11}})
	explicitLen := run(SubmitRequest{Benchmark: "kroC100", Iterations: 5, Backend: "tensor",
		Params: SubmitParams{Seed: 11}})
	if autoLen != explicitLen {
		t.Fatalf("auto-selected tensor solved to %d, explicit tensor to %d", autoLen, explicitLen)
	}
	s.Drain(context.Background())
}

// TestBenchmarkInstanceSharedAcrossJobs: concurrent submits of one named
// benchmark share a single loaded instance, built on first use, and solve
// exactly as a freshly loaded instance does (-race covers the first-use
// load racing across submitters).
func TestBenchmarkInstanceSharedAcrossJobs(t *testing.T) {
	s, _ := newTestService(t, 2, -1, Options{})
	const clients = 4
	ins := make([]*antgpu.Instance, clients)
	finals := make([]JobStatus, clients)
	req := func(c int) SubmitRequest {
		return SubmitRequest{Benchmark: "att48", Backend: "cpu", Iterations: 3,
			Params: SubmitParams{Seed: uint64(c + 1)}, IncludeTour: true}
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			in, _, _, err := s.buildSolve(req(c))
			if err != nil {
				t.Error(err)
				return
			}
			ins[c] = in
			st, err := s.Submit(context.Background(), fmt.Sprintf("c%d", c), req(c))
			if err != nil {
				t.Error(err)
				return
			}
			finals[c] = waitState(t, s, st.ID, JobStatus.Terminal)
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 0; c < clients; c++ {
		if ins[c] != ins[0] {
			t.Errorf("client %d got its own att48 instance, want the shared one", c)
		}
		fresh, err := antgpu.LoadBenchmark("att48")
		if err != nil {
			t.Fatal(err)
		}
		want, err := antgpu.Solve(fresh, antgpu.SolveOptions{Backend: antgpu.BackendCPU, Iterations: 3,
			Params: antgpu.Params{Seed: uint64(c + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		got := finals[c]
		if got.State != StateDone || got.Result.BestLen != want.BestLen ||
			!reflect.DeepEqual(got.Result.BestTour, want.BestTour) {
			t.Errorf("client %d: job %s ended %s with %+v, want best length %d from a fresh load",
				c, got.ID, got.State, got.Result, want.BestLen)
		}
	}
}
