package antgpu

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"antgpu/internal/metrics"
	"antgpu/internal/obslog"
	"antgpu/internal/sched"
	"antgpu/internal/trace"
)

// SolveRequest is one solve of a batch: an instance plus the same options
// a standalone Solve takes — any backend, algorithm, device model, kernel
// versions or fault plan. Requests in one batch are fully independent; the
// scheduler only shares the read-only derived data of repeated instances.
type SolveRequest struct {
	Instance *Instance
	Options  SolveOptions
}

// PoolOptions configure a Pool (and SolveBatch, its one-shot form).
type PoolOptions struct {
	// Workers bounds the number of solves in flight at once, across every
	// Submit and SolveBatch call on the pool. Zero selects
	// runtime.GOMAXPROCS(0) — one worker per schedulable CPU.
	Workers int
	// Metrics, when non-nil, collects the pool's runtime telemetry (queue
	// depth, busy workers, request and cache counters) and is inherited by
	// every request whose own SolveOptions.Metrics is nil, so one registry
	// observes the scheduler and all the solves it dispatches. Nil (the
	// default) disables collection at zero cost.
	Metrics *Metrics
	// Logger, when non-nil, emits a dispatch event (with the queue wait) as
	// a worker picks each request up, and is inherited by every
	// request whose own SolveOptions.Logger is nil — one logger covers the
	// scheduler and all the solves it dispatches. Same nil-is-free contract
	// as Metrics.
	Logger *Logger
}

// BatchItem pairs one request's result with its error. Exactly one of the
// two is non-nil.
type BatchItem struct {
	Result *Result
	Err    error
	// Recovery surfaces the request's fault-tolerant runtime report
	// (Result.Recovery) at the batch level, so a batch over faulty devices
	// can be triaged without digging into each result. Nil when the request
	// failed or did not run through the recovery runtime.
	Recovery *RecoveryReport
}

// BatchReport aggregates one SolveBatch run.
type BatchReport struct {
	// Results holds one item per request, in request order.
	Results []BatchItem
	// CacheHits and CacheMisses count the pool's derived-data cache traffic
	// while the batch ran, which includes that of concurrent Submit and
	// SolveBatch calls on the same pool: a miss computes an instance's
	// derived data, a hit shares it. A batch that repeats an instance (same
	// content, same NN width) reports at least one hit.
	CacheHits, CacheMisses int64
	// SimulatedSeconds sums the per-request simulated times — the cost on
	// the modelled hardware, independent of host parallelism.
	SimulatedSeconds float64
	// WallSeconds is the host wall-clock time of the whole batch.
	WallSeconds float64
	// Faults, Retries, Resets and Failovers aggregate the recovery activity
	// of every request that ran through the fault-tolerant runtime (the sum
	// over the per-item Recovery reports).
	Faults, Retries, Resets, Failovers int
	// Trace lays the profiled requests' timelines (those with
	// Options.Profile set) end to end on one merged collector, each wrapped
	// in a span named after its request index and instance. Nil when no
	// request profiled.
	Trace *Trace
}

// Errs returns the number of failed requests.
func (r *BatchReport) Errs() int {
	n := 0
	for _, it := range r.Results {
		if it.Err != nil {
			n++
		}
	}
	return n
}

// Pool runs independent solves, one at a time through Submit or as
// batches through SolveBatch, at most Workers of them at once, sharing a
// derived-data cache across all of them. A Pool is safe for concurrent
// use; the zero value is not ready — use NewPool. For one-off batches,
// SolveBatch is the convenience form.
//
// Every GPU solve resolves its device clone-on-solve (Device.Clone), so
// requests may share one *Device and one *Instance freely: the scheduler
// never writes caller-owned state, and per-request results are
// byte-identical to running the same requests through sequential Solve
// calls.
type Pool struct {
	workers int
	cache   *sched.Cache
	metrics *Metrics
	logger  *Logger

	// Dispatch state: a counting semaphore bounding every solve of the
	// pool to its worker budget, plus live depth counters — the
	// backpressure signals a service front end keys admission off.
	sem    chan struct{}
	queued atomic.Int64
	busy   atomic.Int64
}

// NewPool returns a Pool with the given options.
func NewPool(opts PoolOptions) *Pool {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{
		workers: workers, metrics: opts.Metrics, logger: opts.Logger, sem: make(chan struct{}, workers),
		cache: sched.NewCache(
			opts.Metrics.Counter("antgpu_pool_cache_hits_total",
				"Derived-data cache lookups that shared data already computed, by Submit and SolveBatch."),
			opts.Metrics.Counter("antgpu_pool_cache_misses_total",
				"Derived-data cache lookups that computed data, by Submit and SolveBatch.")),
	}
}

// Workers returns the pool's resolved worker bound.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of Submit calls currently waiting for a
// worker slot. A front end uses it (or the antgpu_pool_queue_depth gauge it
// feeds) for admission control: past a configured depth, reject instead of
// queueing without bound.
func (p *Pool) QueueDepth() int { return int(p.queued.Load()) }

// BusyWorkers returns the number of Submit solves currently running.
func (p *Pool) BusyWorkers() int { return int(p.busy.Load()) }

// Submit runs one request through the pool's bounded workers: it waits for
// a free worker slot, then solves — the long-running service path, where
// requests arrive one at a time and stream in continuously instead of as
// preassembled batches. It is the pool's one dispatch path: SolveBatch
// submits each of its requests here, so both share the worker bound, the
// derived-data cache, the metrics and logger inheritance and the
// queue-depth, busy-workers and request metrics. started, when non-nil,
// is called exactly once if and when a worker picks the request up — the
// hook a front end uses to flip a job from queued to running. A context
// already done, or cancelled while queued, returns ctx.Err() without
// taking a slot or calling started.
func (p *Pool) Submit(ctx context.Context, req SolveRequest, started func()) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("antgpu: Submit on a nil Pool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	queueGauge, busyGauge := p.poolGauges()
	// Dispatch logging follows the same inheritance as the solve itself: the
	// request's own logger wins, the pool's is the fallback — a service that
	// attaches the logger per request still gets its queue-wait events.
	lg := req.Options.Logger
	if lg == nil {
		lg = p.logger
	}
	var enqueued time.Time
	if lg.Enabled(slog.LevelInfo) {
		enqueued = time.Now()
	}
	queueGauge.Set(float64(p.queued.Add(1)))
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		queueGauge.Set(float64(p.queued.Add(-1)))
		return nil, ctx.Err()
	}
	queueGauge.Set(float64(p.queued.Add(-1)))
	busyGauge.Set(float64(p.busy.Add(1)))
	defer func() {
		busyGauge.Set(float64(p.busy.Add(-1)))
		<-p.sem
	}()
	if lg.Enabled(slog.LevelInfo) {
		lg.Event(ctx, obslog.EvDispatch,
			slog.Float64("queue_wait_s", time.Since(enqueued).Seconds()),
			slog.Int("busy", int(p.busy.Load())))
	}
	if started != nil {
		started()
	}

	opts := req.Options
	opts.cache = p.cache
	if opts.Metrics == nil {
		opts.Metrics = p.metrics
	}
	if opts.Logger == nil {
		opts.Logger = p.logger
	}
	res, err := SolveContext(ctx, req.Instance, opts)
	if p.metrics != nil {
		status := "ok"
		if err != nil {
			status = "error"
		}
		p.metrics.Counter("antgpu_pool_requests_total",
			"Batch requests completed.", "status", status).Inc()
	}
	return res, err
}

// poolGauges returns the queue-depth and busy-workers gauge handles (no-ops
// when the pool runs unobserved — a zero-value gauge drops every Set).
func (p *Pool) poolGauges() (queue, busy metrics.Gauge) {
	if p.metrics == nil {
		return metrics.Gauge{}, metrics.Gauge{}
	}
	return p.metrics.Gauge("antgpu_pool_queue_depth",
			"Submitted batch requests not yet picked up by a worker."),
		p.metrics.Gauge("antgpu_pool_workers_busy",
			"Pool workers currently running a solve.")
}

// Metrics returns the pool's registry (PoolOptions.Metrics), or nil when
// the pool runs unobserved. Serve it live with ServeMetrics, or snapshot it
// between batches for programmatic introspection.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// CacheStats returns the pool's cumulative derived-data cache hit and miss
// counts across every Submit and SolveBatch call; a pool with a registry
// exports the same counts as antgpu_pool_cache_hits_total and
// antgpu_pool_cache_misses_total.
func (p *Pool) CacheStats() (hits, misses int64) { return p.cache.Stats() }

// SolveBatch runs every request through Submit and returns their results
// in request order. Failures are per-request (BatchItem.Err); the batch
// itself only fails on a nil pool. At most min(Workers, len(reqs))
// requests are submitted at once, each taking the next request index, so a
// one-worker pool runs a batch in request order. The context is checked
// between iterations of every running solve and before each request takes
// a worker slot, so cancellation drains the batch promptly, failing
// unstarted requests with ctx.Err().
func (p *Pool) SolveBatch(ctx context.Context, reqs []SolveRequest) (*BatchReport, error) {
	if p == nil {
		return nil, fmt.Errorf("antgpu: SolveBatch on a nil Pool")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	hits0, misses0 := p.cache.Stats()
	start := time.Now()

	rep := &BatchReport{Results: make([]BatchItem, len(reqs))}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(p.workers, len(reqs)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				res, err := p.Submit(ctx, reqs[i], nil)
				rep.Results[i] = BatchItem{Result: res, Err: err}
				if res != nil {
					rep.Results[i].Recovery = res.Recovery
				}
			}
		}()
	}
	wg.Wait()

	rep.WallSeconds = time.Since(start).Seconds()
	hits1, misses1 := p.cache.Stats()
	rep.CacheHits, rep.CacheMisses = hits1-hits0, misses1-misses0

	var merged *trace.Collector
	for i, it := range rep.Results {
		if r := it.Recovery; r != nil {
			rep.Faults += r.Faults
			rep.Retries += r.Retries
			rep.Resets += r.Resets
			if r.Degraded {
				rep.Failovers++
			}
		}
		if it.Result == nil {
			continue
		}
		rep.SimulatedSeconds += it.Result.SimulatedSeconds
		if it.Result.Trace != nil {
			if merged == nil {
				merged = trace.NewCollector()
			}
			name := fmt.Sprintf("req[%d]", i)
			if reqs[i].Instance != nil {
				name += " " + reqs[i].Instance.Name
			}
			merged.Begin(name)
			merged.Merge(it.Result.Trace)
			merged.End()
		}
	}
	rep.Trace = merged
	return rep, nil
}

// SolveBatch runs many independent solves — any mix of backends,
// algorithms, devices and fault plans — across bounded worker goroutines
// and returns their results in request order with per-request errors.
// Requests repeating an instance share its derived data (distance
// conversion, NN lists, greedy-NN tour length) read-only through a
// content-hash-keyed cache; every GPU request runs on a private clone of
// its device. Results are byte-identical to sequential Solve calls over
// the same requests. For repeated batches sharing one cache, build a Pool
// once and call its SolveBatch method.
func SolveBatch(ctx context.Context, reqs []SolveRequest, opts PoolOptions) (*BatchReport, error) {
	return NewPool(opts).SolveBatch(ctx, reqs)
}
