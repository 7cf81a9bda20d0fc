// Package service is the transport-agnostic solve-as-a-service layer over
// antgpu.Pool — the front end of the ROADMAP's "millions of users"
// trajectory. Clients submit solve requests (a benchmark name or an inline
// TSPLIB upload plus parameters), poll job status, stream per-iteration
// convergence events, and cancel via the context already threaded through
// every engine. Production concerns live here, not in the transports:
// admission control keyed off the pool's queue depth, per-client
// token-bucket rate limits, and graceful drain (stop admitting, finish
// in-flight jobs).
//
// The HTTP/JSON + SSE adapter is http.go (Service.Handler); every method
// of Service is transport-neutral, so a gRPC adapter would wrap the same
// calls. cmd/antgpud is the long-running server binary and cmd/acoload the
// load generator that measures the service's latency percentiles.
package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"antgpu"
	"antgpu/internal/metrics"
	"antgpu/internal/obslog"
	"antgpu/internal/sched"
	"antgpu/internal/tsp"
)

// Typed admission errors. The HTTP adapter maps them to status codes
// (429/503/404/400); a programmatic front end matches them with errors.Is.
var (
	// ErrOverloaded rejects a submit because the pool's queue is past the
	// configured depth — backpressure, not failure. Retry later.
	ErrOverloaded = errors.New("service: queue full, retry later")
	// ErrRateLimited rejects a submit because the client exhausted its
	// token bucket.
	ErrRateLimited = errors.New("service: client rate limit exceeded")
	// ErrDraining rejects a submit because the service is shutting down.
	ErrDraining = errors.New("service: draining, not admitting new jobs")
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("service: no such job")
	// ErrBadRequest wraps every request-validation failure.
	ErrBadRequest = errors.New("service: bad request")
)

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// Options configure a Service.
type Options struct {
	// Pool runs the solves. Required; its worker bound is the service's
	// concurrency and its queue-depth gauge the backpressure signal.
	Pool *antgpu.Pool
	// Metrics, when non-nil, receives the service's own telemetry
	// (admission counters, job latency). Usually the same registry as the
	// pool's, so one scrape sees the whole stack.
	Metrics *antgpu.Metrics
	// MaxQueueDepth rejects submissions with ErrOverloaded once this many
	// admitted jobs are waiting for a worker. Zero selects 4× the pool's
	// worker bound; negative disables admission control.
	MaxQueueDepth int
	// RatePerSec refills each client's token bucket at this rate; a submit
	// spends one token. Zero disables per-client rate limiting.
	RatePerSec float64
	// Burst is the token-bucket capacity (default max(1, ⌈RatePerSec⌉)).
	Burst int
	// MaxIterations caps client-requested iterations (default 100000).
	MaxIterations int
	// MaxUploadBytes caps an inline TSPLIB upload (default 8 MiB). The
	// HTTP adapter also enforces it on the request body.
	MaxUploadBytes int64
	// JobTTL bounds how long a terminal job (done, failed or cancelled)
	// stays pollable; after it the record is evicted and Job/Stream return
	// ErrNotFound. Zero selects 15 minutes; negative disables TTL eviction.
	// Queued and running jobs are never evicted.
	JobTTL time.Duration
	// MaxJobs caps the in-memory job map. Past it the oldest terminal jobs
	// are evicted regardless of age. Zero selects 4096; negative disables
	// the cap. A map full of non-terminal jobs can still exceed the cap —
	// admission control (MaxQueueDepth) is the bound on those.
	MaxJobs int
	// Logger, when non-nil, receives one structured event per admission
	// decision, job state transition, eviction and drain — each keyed by the
	// submit's correlation (request ID from the transport, job ID assigned
	// here) — and is handed to every solve so the solver layers' events carry
	// the same correlation. When the logger has a flight recorder, each job's
	// last events are served by JobLog (the HTTP adapter's
	// GET /v1/jobs/{id}/log) and dumped on terminal job failure. Nil disables
	// all of it at zero cost.
	Logger *obslog.Logger
	// KeepAlive is the idle interval after which Stream emits a keep-alive
	// event (Type "ping", Seq -1) so transports can keep proxies and clients
	// from timing out a quiet SSE connection. Zero selects 15 seconds;
	// negative disables keep-alives.
	KeepAlive time.Duration

	// now overrides the clock in tests.
	now func() time.Time
	// after overrides the keep-alive timer in tests.
	after func(time.Duration) <-chan time.Time
}

// SubmitParams are the client-settable Ant System parameters; zero-valued
// fields keep the library defaults (per-field, like antgpu.Params).
type SubmitParams struct {
	Alpha float64 `json:"alpha,omitempty"`
	Beta  float64 `json:"beta,omitempty"`
	Rho   float64 `json:"rho,omitempty"`
	Ants  int     `json:"ants,omitempty"`
	NN    int     `json:"nn,omitempty"`
	Seed  uint64  `json:"seed,omitempty"`
	// Workers caps the engine-internal worker goroutines of backends that
	// parallelize one solve across cores (the tensor backend). Zero lets
	// the service size it: the machine's cores split fairly across the
	// pool's concurrent solve slots. Results are bit-identical for every
	// worker count — this is purely a throughput knob.
	Workers int `json:"workers,omitempty"`
}

// SubmitRequest is one solve submission. Exactly one of Benchmark and
// TSPLIB selects the instance.
type SubmitRequest struct {
	// Benchmark names one of the paper's benchmark instances (att48 …
	// pr2392).
	Benchmark string `json:"benchmark,omitempty"`
	// TSPLIB is an inline TSPLIB-format instance upload.
	TSPLIB string `json:"tsplib,omitempty"`
	// Iterations is the ACO iteration count (default 20).
	Iterations int `json:"iterations,omitempty"`
	// Backend is "cpu", "gpu" (the simulated device) or "tensor" (the
	// host-native float32 matrix-kernel engine). Omitted, the service
	// picks cpu or tensor itself from the instance size and ant count —
	// the choice lands in JobStatus.Backend with BackendAuto set, and in
	// the antgpu_service_backend_selected_total counter.
	Backend string `json:"backend,omitempty"`
	// Algorithm is "as" (default), "acs", "mmas", "eas" or "rank".
	Algorithm string `json:"algorithm,omitempty"`
	// Params tune the colony; zero-valued fields keep the defaults.
	Params SubmitParams `json:"params,omitempty"`
	// LocalSearch applies 2-opt local search after construction (AS only).
	LocalSearch bool `json:"local_search,omitempty"`
	// Optimum, when known, enables the gap field of convergence events.
	Optimum int64 `json:"optimum,omitempty"`
	// IncludeTour returns the best tour's city order in the result (off by
	// default: a pr2392 tour is ~10 KB per poll).
	IncludeTour bool `json:"include_tour,omitempty"`
	// FaultSpec injects deterministic device faults into the solve, in the
	// cuda.ParseFaultSpec syntax ("rate=0.02,seed=7", "dieat=5,seed=3", …).
	// Requires backend gpu, algorithm as, and no local_search — the
	// fault-tolerant runtime's envelope. The debugging workflow: submit a
	// faulted job with a known request ID, then follow that ID through the
	// log stream and GET /v1/jobs/{id}/log.
	FaultSpec string `json:"fault_spec,omitempty"`
	// NoFailover disables the recovery runtime's CPU degradation, so a solve
	// that exhausts its retry budget fails terminally instead of completing
	// on the CPU colony. Same envelope requirements as FaultSpec.
	NoFailover bool `json:"no_failover,omitempty"`
}

// JobResult is the solved outcome carried by a terminal JobStatus.
type JobResult struct {
	BestLen          int64   `json:"best_len"`
	BestTour         []int32 `json:"best_tour,omitempty"`
	SimulatedSeconds float64 `json:"simulated_seconds"`
	// Iterations counts the convergence events observed (0 for algorithms
	// that do not produce the feed).
	Iterations int `json:"iterations"`
}

// JobStatus is a point-in-time snapshot of one job.
type JobStatus struct {
	ID string `json:"id"`
	// RequestID is the correlation key of the submit that created the job:
	// the X-Request-ID the client sent, or the one generated at admission.
	// Every log line the job produced carries the same value.
	RequestID string `json:"request_id,omitempty"`
	State     string `json:"state"`
	Instance  string `json:"instance"`
	Backend   string `json:"backend"`
	// BackendAuto marks a backend the service chose because the submit
	// omitted one.
	BackendAuto bool `json:"backend_auto,omitempty"`
	// Workers is the engine-internal worker count the job solves with
	// (tensor backend only; zero for backends that don't parallelize
	// within a solve).
	Workers    int        `json:"workers,omitempty"`
	Algorithm  string     `json:"algorithm"`
	Iterations int        `json:"iterations"`
	Created    time.Time  `json:"created"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	Error      string     `json:"error,omitempty"`
	Result     *JobResult `json:"result,omitempty"`
}

// Terminal reports whether the state is final.
func (s JobStatus) Terminal() bool {
	switch s.State {
	case StateDone, StateFailed, StateCancelled:
		return true
	}
	return false
}

// Event is one element of a job's event stream: per-iteration convergence
// while the solve runs, then exactly one terminal status event.
type Event struct {
	// Type is "iteration" or "status".
	Type string `json:"type"`
	// Seq numbers the event within the job's stream, from 0.
	Seq int `json:"seq"`
	// Iteration is set on "iteration" events.
	Iteration *antgpu.IterationEvent `json:"iteration,omitempty"`
	// Status is set on "status" events (the terminal snapshot).
	Status *JobStatus `json:"status,omitempty"`
}

// job is the service-internal job record. Its mutable fields are guarded
// by mu; events only grows, and wake is closed-and-replaced on every
// append so streamers can block without polling.
type job struct {
	mu       sync.Mutex
	status   JobStatus
	result   *antgpu.Result
	events   []Event
	wake     chan struct{}
	cancel   context.CancelFunc
	includeT bool
}

// Service is a running solve service. Create it with New; it is safe for
// concurrent use by any number of transport goroutines.
type Service struct {
	pool     *antgpu.Pool
	metrics  *antgpu.Metrics
	maxQueue int
	maxIters int
	maxBytes int64
	jobTTL   time.Duration
	maxJobs  int
	limiter  *limiter
	logger   *obslog.Logger
	keep     time.Duration
	now      func() time.Time
	after    func(time.Duration) <-chan time.Time

	queued   atomic.Int64 // admitted, not yet picked up by a pool worker
	draining atomic.Bool
	wg       sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*job
	order []string // submission order, for Jobs()
	seq   uint64   // job ID counter

	accepted  metrics.Counter
	rejOver   metrics.Counter
	rejRate   metrics.Counter
	rejDrain  metrics.Counter
	rejBad    metrics.Counter
	jobDur    metrics.Histogram
	streamsG  metrics.Gauge
	cancelled metrics.Counter
	evictedC  metrics.Counter
	selCPU    metrics.Counter
	selTensor metrics.Counter
}

// New returns a Service over the pool. A nil pool panics — the service has
// nothing to dispatch to.
func New(opts Options) *Service {
	if opts.Pool == nil {
		panic("service: New requires a Pool")
	}
	s := &Service{
		pool:     opts.Pool,
		metrics:  opts.Metrics,
		maxQueue: opts.MaxQueueDepth,
		maxIters: opts.MaxIterations,
		maxBytes: opts.MaxUploadBytes,
		jobTTL:   opts.JobTTL,
		maxJobs:  opts.MaxJobs,
		logger:   opts.Logger,
		keep:     opts.KeepAlive,
		now:      opts.now,
		after:    opts.after,
		jobs:     make(map[string]*job),
	}
	if s.maxQueue == 0 {
		s.maxQueue = 4 * opts.Pool.Workers()
	}
	if s.maxIters <= 0 {
		s.maxIters = 100000
	}
	if s.maxBytes <= 0 {
		s.maxBytes = 8 << 20
	}
	if s.jobTTL == 0 {
		s.jobTTL = 15 * time.Minute
	}
	if s.maxJobs == 0 {
		s.maxJobs = 4096
	}
	if s.keep == 0 {
		s.keep = 15 * time.Second
	}
	if s.now == nil {
		s.now = time.Now
	}
	if s.after == nil {
		s.after = time.After
	}
	if opts.RatePerSec > 0 {
		burst := opts.Burst
		if burst <= 0 {
			burst = int(opts.RatePerSec + 0.999)
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = newLimiter(opts.RatePerSec, float64(burst), s.now)
	}
	if m := opts.Metrics; m != nil {
		const reqHelp = "Service submissions by admission outcome."
		s.accepted = m.Counter("antgpu_service_requests_total", reqHelp, "outcome", "accepted")
		s.rejOver = m.Counter("antgpu_service_requests_total", reqHelp, "outcome", "rejected_overload")
		s.rejRate = m.Counter("antgpu_service_requests_total", reqHelp, "outcome", "rejected_ratelimit")
		s.rejDrain = m.Counter("antgpu_service_requests_total", reqHelp, "outcome", "rejected_draining")
		s.rejBad = m.Counter("antgpu_service_requests_total", reqHelp, "outcome", "invalid")
		s.jobDur = m.Histogram("antgpu_service_job_seconds",
			"Submit-to-terminal job latency in wall seconds.", metrics.TimeBuckets)
		s.streamsG = m.Gauge("antgpu_service_streams_open",
			"Event streams currently open.")
		s.cancelled = m.Counter("antgpu_service_cancels_total",
			"Jobs cancelled by a client.")
		s.evictedC = m.Counter("antgpu_service_jobs_evicted_total",
			"Terminal job records evicted by the TTL or map-size cap.")
		const selHelp = "Backends auto-selected for submits that omitted one."
		s.selCPU = m.Counter("antgpu_service_backend_selected_total", selHelp, "backend", "cpu")
		s.selTensor = m.Counter("antgpu_service_backend_selected_total", selHelp, "backend", "tensor")
	}
	return s
}

// QueueDepth returns the number of admitted jobs waiting for a pool
// worker — the same signal the antgpu_pool_queue_depth gauge exports.
func (s *Service) QueueDepth() int { return int(s.queued.Load()) }

// MaxQueueDepth returns the effective admission bound (negative means
// unbounded).
func (s *Service) MaxQueueDepth() int { return s.maxQueue }

// Draining reports whether the service has stopped admitting jobs.
func (s *Service) Draining() bool { return s.draining.Load() }

// Submit validates and admits one solve request for the given client and
// starts it asynchronously, returning the queued job's status. Admission
// can fail with ErrDraining, ErrRateLimited, ErrOverloaded, or a validation
// error wrapping ErrBadRequest. The request context only covers admission;
// the job itself runs under the service's lifetime and is cancelled by
// Cancel or drain, never by the submitting transport connection going away.
//
// The context's correlation (obslog.FromContext) keys every event the job
// will ever log; a missing request ID is filled in here, so even a direct
// programmatic Submit gets a correlated log stream. The assigned request ID
// is returned in JobStatus.RequestID (the HTTP adapter additionally echoes
// it as the X-Request-ID response header).
func (s *Service) Submit(ctx context.Context, client string, req SubmitRequest) (JobStatus, error) {
	corr, _ := obslog.FromContext(ctx)
	if corr.RequestID == "" {
		corr.RequestID = obslog.NewRequestID()
	}
	reject := func(reason string, err error) (JobStatus, error) {
		if s.logger.Enabled(slog.LevelInfo) {
			s.logger.Event(obslog.WithCorrelation(ctx, corr), obslog.EvReject,
				slog.String("reason", reason), slog.String("client", client),
				slog.String("err", err.Error()))
		}
		return JobStatus{}, err
	}
	if s.draining.Load() {
		s.rejDrain.Inc()
		return reject("draining", ErrDraining)
	}
	if !s.limiter.allow(client) {
		s.rejRate.Inc()
		return reject("ratelimit", ErrRateLimited)
	}
	in, opts, auto, err := s.buildSolve(req)
	if err != nil {
		s.rejBad.Inc()
		return reject("invalid", err)
	}
	// Atomically reserve a queue slot: Add-then-check never overshoots the
	// bound under concurrent submits, unlike a read-then-add.
	if s.maxQueue >= 0 {
		if s.queued.Add(1) > int64(s.maxQueue) {
			s.queued.Add(-1)
			s.rejOver.Inc()
			return reject("overload", ErrOverloaded)
		}
	} else {
		s.queued.Add(1)
	}

	jctx, cancel := context.WithCancel(context.Background())
	j := &job{
		wake:     make(chan struct{}),
		cancel:   cancel,
		includeT: req.IncludeTour,
	}
	s.mu.Lock()
	if s.draining.Load() {
		// A drain raced the admission; give the slot back.
		s.mu.Unlock()
		s.queued.Add(-1)
		cancel()
		s.rejDrain.Inc()
		return reject("draining", ErrDraining)
	}
	s.seq++
	id := fmt.Sprintf("job-%d", s.seq)
	workers := 0
	if opts.Backend == antgpu.BackendTensor {
		workers = opts.Params.Workers
	}
	j.status = JobStatus{
		ID:          id,
		RequestID:   corr.RequestID,
		State:       StateQueued,
		Instance:    in.Name,
		Backend:     opts.Backend.String(),
		BackendAuto: auto,
		Workers:     workers,
		Algorithm:   opts.Algorithm.String(),
		Iterations:  opts.Iterations,
		Created:     s.now(),
	}
	s.jobs[id] = j
	s.order = append(s.order, id)
	s.evictLocked(s.now())
	s.wg.Add(1)
	s.mu.Unlock()
	s.accepted.Inc()
	if auto {
		if opts.Backend == antgpu.BackendTensor {
			s.selTensor.Inc()
		} else {
			s.selCPU.Inc()
		}
	}

	// The job runs detached from the submitting transport but keyed by its
	// correlation: request ID from the submit, job ID assigned above. Every
	// solver-layer event below flows through the same logger and context.
	corr.JobID = id
	jctx = obslog.WithCorrelation(jctx, corr)
	opts.Logger = s.logger
	if s.logger.Enabled(slog.LevelInfo) {
		s.logger.Event(jctx, obslog.EvAdmit,
			slog.String("client", client), slog.String("instance", in.Name),
			slog.String("backend", j.status.Backend),
			slog.String("algorithm", j.status.Algorithm),
			slog.Int("iterations", opts.Iterations))
	}

	go s.run(j, jctx, in, opts)
	return j.snapshot(), nil
}

// run executes one admitted job through the pool and finalises it.
func (s *Service) run(j *job, ctx context.Context, in *antgpu.Instance, opts antgpu.SolveOptions) {
	defer s.wg.Done()
	opts.OnIteration = func(ev antgpu.IterationEvent) {
		j.mu.Lock()
		j.append(Event{Type: "iteration", Iteration: &ev})
		j.mu.Unlock()
	}
	res, err := s.pool.Submit(ctx, antgpu.SolveRequest{Instance: in, Options: opts}, func() {
		now := s.now()
		j.mu.Lock()
		// Only the first pickup transitions queued→running; a job cancelled
		// while queued already holds its terminal state.
		if j.status.State == StateQueued {
			j.status.State = StateRunning
			j.status.Started = &now
		}
		j.mu.Unlock()
		s.queued.Add(-1)
	})
	if err != nil && ctx.Err() != nil {
		err = context.Cause(ctx)
	}

	now := s.now()
	j.mu.Lock()
	if j.status.Started == nil {
		// Never picked up: the queue slot reserved at admission is still
		// held.
		s.queued.Add(-1)
	}
	switch {
	case err == nil:
		j.status.State = StateDone
		j.result = res
		r := &JobResult{
			BestLen:          res.BestLen,
			SimulatedSeconds: res.SimulatedSeconds,
		}
		for _, ev := range j.events {
			if ev.Type == "iteration" {
				r.Iterations++
			}
		}
		if j.includeT {
			r.BestTour = res.BestTour
		}
		j.status.Result = r
	case errors.Is(err, context.Canceled):
		j.status.State = StateCancelled
		j.status.Error = err.Error()
	default:
		j.status.State = StateFailed
		j.status.Error = err.Error()
	}
	j.status.Finished = &now
	st := j.status
	j.append(Event{Type: "status", Status: &st})
	j.mu.Unlock()
	s.jobDur.Observe(now.Sub(st.Created).Seconds())

	if s.logger.Enabled(slog.LevelInfo) {
		wall := slog.Float64("wall_s", now.Sub(st.Created).Seconds())
		switch st.State {
		case StateDone:
			s.logger.Event(ctx, obslog.EvDone,
				slog.Int64("best_len", st.Result.BestLen),
				slog.Float64("sim_s", st.Result.SimulatedSeconds), wall)
		case StateCancelled:
			s.logger.Event(ctx, obslog.EvCancelled, wall)
		case StateFailed:
			s.logger.Error(ctx, obslog.EvFailed, slog.String("err", st.Error), wall)
			// A terminal failure is exactly what the flight recorder exists
			// for: dump the job's last events (all levels, kernel launches
			// included) so the post-mortem does not depend on the stream
			// having been at debug.
			s.logger.CrashDumpJob(st.ID, "job failed: "+st.Error)
		}
	}
}

// append adds one event to the job's stream and wakes blocked streamers.
// Callers hold j.mu.
func (j *job) append(ev Event) {
	ev.Seq = len(j.events)
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// snapshot copies the job's status under its lock.
func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// lookup resolves a job ID.
func (s *Service) lookup(id string) (*job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j, nil
}

// Job returns the current status of one job.
func (s *Service) Job(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	return j.snapshot(), nil
}

// JobLog writes the job's flight-recorder events to w as NDJSON — the last
// N events the job produced across every layer (admission, dispatch, solver
// lifecycle, faults, kernel launches), each line carrying the job's request
// ID. It fails with ErrNotFound when the job is unknown or the service's
// logger has no flight recorder attached (there is then nothing to serve,
// and the HTTP adapter's 404 tells the client the log is simply not there).
func (s *Service) JobLog(w io.Writer, id string) error {
	if _, err := s.lookup(id); err != nil {
		return err
	}
	f := s.logger.Flight()
	if f == nil {
		return fmt.Errorf("%w: no flight recorder attached, job %q has no log", ErrNotFound, id)
	}
	return f.WriteJob(w, id)
}

// evictLocked enforces the job-retention policy: terminal jobs older than
// the TTL go, and once the map exceeds MaxJobs the oldest terminal jobs go
// regardless of age. Non-terminal jobs are never touched — a queued or
// running job's status must stay reachable until it finishes. Called with
// s.mu held; takes each job's mu briefly (lock order is always s.mu then
// j.mu, never the reverse).
func (s *Service) evictLocked(now time.Time) {
	need := 0 // cap-evictions still required; TTL evictions count too
	if s.maxJobs > 0 {
		need = len(s.order) - s.maxJobs
	}
	if s.jobTTL <= 0 && need <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		terminal := j.status.Terminal()
		finished := j.status.Finished
		reqID := j.status.RequestID
		j.mu.Unlock()
		if terminal && finished != nil {
			expired := s.jobTTL > 0 && now.Sub(*finished) >= s.jobTTL
			if expired || need > 0 {
				delete(s.jobs, id)
				s.evictedC.Inc()
				need--
				// The job record is gone; release its flight-recorder ring
				// too, or long-lived services would pin one ring per evicted
				// job forever.
				if f := s.logger.Flight(); f != nil {
					f.DropJob(id)
				}
				if s.logger.Enabled(slog.LevelInfo) {
					ectx := obslog.WithCorrelation(context.Background(),
						obslog.Correlation{RequestID: reqID, JobID: id, Island: -1})
					s.logger.Event(ectx, obslog.EvEvict, slog.Bool("expired", expired))
				}
				continue
			}
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Jobs returns every job's status in submission order. Listing also
// applies the retention policy, so TTL expiry is visible on an otherwise
// idle service.
func (s *Service) Jobs() []JobStatus {
	s.mu.Lock()
	s.evictLocked(s.now())
	js := make([]*job, 0, len(s.order))
	for _, id := range s.order {
		js = append(js, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, len(js))
	for i, j := range js {
		out[i] = j.snapshot()
	}
	return out
}

// Cancel requests cancellation of a job and returns its (possibly already
// terminal) status. Cancelling a finished job is a no-op, not an error —
// the client races the solve, and losing that race is fine.
func (s *Service) Cancel(id string) (JobStatus, error) {
	j, err := s.lookup(id)
	if err != nil {
		return JobStatus{}, err
	}
	j.mu.Lock()
	terminal := j.status.Terminal()
	cancel := j.cancel
	j.mu.Unlock()
	if !terminal {
		s.cancelled.Inc()
		cancel()
	}
	return j.snapshot(), nil
}

// Stream delivers the job's events in order to emit — the full history
// first (late subscribers replay from the start), then live events as they
// arrive — and returns once the terminal status event has been delivered,
// the context is cancelled, or emit fails. It is the transport-agnostic
// core of the SSE endpoint; any number of streams may follow one job.
//
// When the stream has been idle for Options.KeepAlive, emit receives a
// synthetic keep-alive event (Type "ping", Seq -1) that is not part of the
// job's history — the HTTP adapter turns it into an SSE comment line so
// proxies and clients do not time the connection out between iterations.
func (s *Service) Stream(ctx context.Context, id string, emit func(Event) error) error {
	j, err := s.lookup(id)
	if err != nil {
		return err
	}
	s.streamsG.Add(1)
	defer s.streamsG.Add(-1)
	next := 0
	for {
		j.mu.Lock()
		pending := j.events[next:]
		wake := j.wake
		j.mu.Unlock()
		for _, ev := range pending {
			if err := emit(ev); err != nil {
				return err
			}
			next++
			if ev.Type == "status" {
				return nil
			}
		}
		var keep <-chan time.Time
		if s.keep > 0 {
			keep = s.after(s.keep)
		}
		select {
		case <-wake:
		case <-keep:
			if err := emit(Event{Type: "ping", Seq: -1}); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Drain gracefully shuts the service down: new submissions fail with
// ErrDraining immediately, queued and running jobs finish normally, and
// Drain returns once every admitted job has reached a terminal state (or
// with ctx.Err() if the context expires first — in-flight jobs keep
// running; call CancelAll first for a hard stop).
func (s *Service) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if s.logger.Enabled(slog.LevelInfo) {
		s.logger.Event(ctx, obslog.EvDrain, slog.String("phase", "start"))
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		if s.logger.Enabled(slog.LevelInfo) {
			s.logger.Event(ctx, obslog.EvDrain, slog.String("phase", "finished"))
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// CancelAll cancels every non-terminal job (the hard-stop companion to
// Drain) and returns how many were cancelled.
func (s *Service) CancelAll() int {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	n := 0
	for _, j := range js {
		j.mu.Lock()
		terminal := j.status.Terminal()
		cancel := j.cancel
		j.mu.Unlock()
		if !terminal {
			cancel()
			n++
		}
	}
	return n
}

// pickBackend chooses the engine for a submit that didn't: the tensor
// engine earns its setup cost on large instances, and wins on small ones
// too whenever the ant count stays below the instance size (fewer ants
// amortizing the same n² weight refresh favour the matrix kernels). The
// algorithms the tensor engine doesn't implement run the reference CPU
// colony. A zero ant count means m = n, as everywhere else.
func pickBackend(n, ants int, alg antgpu.Algorithm) antgpu.Backend {
	if alg == antgpu.AlgorithmEAS || alg == antgpu.AlgorithmRank {
		return antgpu.BackendCPU
	}
	if ants == 0 {
		ants = n
	}
	if n >= 96 || ants < n {
		return antgpu.BackendTensor
	}
	return antgpu.BackendCPU
}

// buildSolve validates a SubmitRequest into an instance and solve options.
// auto reports that the request omitted the backend and the service chose
// one.
func (s *Service) buildSolve(req SubmitRequest) (in *antgpu.Instance, opts antgpu.SolveOptions, auto bool, err error) {
	bad := func(format string, args ...any) (*antgpu.Instance, antgpu.SolveOptions, bool, error) {
		return nil, opts, false, fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
	}

	switch {
	case req.Benchmark != "" && req.TSPLIB != "":
		return bad("benchmark and tsplib are mutually exclusive")
	case req.Benchmark != "":
		if in, err = antgpu.LoadBenchmark(req.Benchmark); err != nil {
			return bad("unknown benchmark %q (have %s)", req.Benchmark,
				strings.Join(antgpu.Benchmarks(), ", "))
		}
	case req.TSPLIB != "":
		if int64(len(req.TSPLIB)) > s.maxBytes {
			return bad("tsplib upload of %d bytes exceeds the %d-byte limit",
				len(req.TSPLIB), s.maxBytes)
		}
		if in, err = tsp.Parse(strings.NewReader(req.TSPLIB)); err != nil {
			return bad("tsplib: %v", err)
		}
		if err := in.Validate(); err != nil {
			return bad("tsplib: %v", err)
		}
	default:
		return bad("one of benchmark or tsplib is required")
	}

	if req.Iterations < 0 || req.Iterations > s.maxIters {
		return bad("iterations %d out of range [0, %d]", req.Iterations, s.maxIters)
	}
	opts.Iterations = req.Iterations

	switch strings.ToLower(req.Backend) {
	case "":
		// Auto-selection waits for the parsed algorithm and ant count,
		// just below the algorithm switch.
	case "cpu":
		opts.Backend = antgpu.BackendCPU
	case "gpu":
		opts.Backend = antgpu.BackendGPU
	case "tensor":
		opts.Backend = antgpu.BackendTensor
	default:
		return bad("unknown backend %q (want cpu, gpu or tensor)", req.Backend)
	}
	switch strings.ToLower(req.Algorithm) {
	case "", "as":
		opts.Algorithm = antgpu.AlgorithmAS
	case "acs":
		opts.Algorithm = antgpu.AlgorithmACS
	case "mmas":
		opts.Algorithm = antgpu.AlgorithmMMAS
	case "eas":
		opts.Algorithm = antgpu.AlgorithmEAS
	case "rank":
		opts.Algorithm = antgpu.AlgorithmRank
	default:
		return bad("unknown algorithm %q (want as, acs, mmas, eas or rank)", req.Algorithm)
	}
	if req.Backend == "" {
		auto = true
		opts.Backend = pickBackend(in.N(), req.Params.Ants, opts.Algorithm)
	}
	if opts.Backend == antgpu.BackendTensor &&
		(opts.Algorithm == antgpu.AlgorithmEAS || opts.Algorithm == antgpu.AlgorithmRank) {
		return bad("backend tensor supports algorithms as, acs and mmas only")
	}
	if req.LocalSearch {
		if opts.Algorithm != antgpu.AlgorithmAS {
			return bad("local_search is supported for algorithm as only")
		}
		opts.LocalSearch = true
	}
	if req.Optimum < 0 {
		return bad("optimum must be non-negative")
	}
	opts.Optimum = req.Optimum
	opts.Params = antgpu.Params{
		Alpha:   req.Params.Alpha,
		Beta:    req.Params.Beta,
		Rho:     req.Params.Rho,
		Ants:    req.Params.Ants,
		NN:      req.Params.NN,
		Seed:    req.Params.Seed,
		Workers: req.Params.Workers,
	}
	// Range errors (negative α, ρ > 1, …) surface from the engines as
	// ErrInvalidParams once the job runs; cheap structural checks that
	// would otherwise waste a queue slot are rejected here.
	if req.Params.Ants < 0 || req.Params.NN < 0 || req.Params.Workers < 0 {
		return bad("params.ants, params.nn and params.workers must be non-negative")
	}
	if opts.Backend == antgpu.BackendTensor && opts.Params.Workers == 0 {
		// Size the engine's share of the machine for the pool's concurrency:
		// every solve slot running a tensor job at once should still fit.
		opts.Params.Workers = sched.WorkerShare(runtime.GOMAXPROCS(0), s.pool.Workers())
	}
	if req.FaultSpec != "" || req.NoFailover {
		// Fault injection and recovery tuning ride the fault-tolerant
		// runtime, which only supports this configuration; rejecting the
		// rest here keeps the job from burning a queue slot to fail.
		if opts.Backend != antgpu.BackendGPU || opts.Algorithm != antgpu.AlgorithmAS || opts.LocalSearch {
			return bad("fault_spec and no_failover require backend gpu, algorithm as and no local_search")
		}
		if req.FaultSpec != "" {
			plan, err := antgpu.ParseFaultSpec(req.FaultSpec)
			if err != nil {
				return bad("fault_spec: %v", err)
			}
			opts.Faults = plan
		}
		if req.NoFailover {
			opts.Recovery = &antgpu.RecoveryOptions{DisableFailover: true}
		}
	}
	return in, opts, auto, nil
}

// limiter is a per-client token-bucket rate limiter. A nil limiter allows
// everything.
type limiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*bucket
	now     func() time.Time
}

type bucket struct {
	tokens float64
	last   time.Time
}

// maxClients bounds the bucket map; past it, stale buckets are evicted so
// an adversarial stream of client IDs cannot grow memory without bound.
const maxClients = 100000

func newLimiter(rate, burst float64, now func() time.Time) *limiter {
	return &limiter{rate: rate, burst: burst, buckets: make(map[string]*bucket), now: now}
}

// allow spends one token from the client's bucket, reporting whether one
// was available. Unknown clients start with a full bucket.
func (l *limiter) allow(client string) bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxClients {
			l.evict(now)
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[client] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evict drops buckets that have refilled to capacity (their clients are
// idle and indistinguishable from unseen ones). Called with l.mu held.
func (l *limiter) evict(now time.Time) {
	for id, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.rate >= l.burst {
			delete(l.buckets, id)
		}
	}
}
