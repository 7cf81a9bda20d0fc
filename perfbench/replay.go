package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"runtime"
	"strings"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/metrics"
	"antgpu/internal/sched"
	"antgpu/internal/tensor"
	"antgpu/internal/tsp"
)

// The traced replay calls each layer's public entry point directly on a
// prefix of the load run's jobs and times it from outside, with one span
// per call. Nothing here changes how the program runs; spans inside the
// program are out of scope.

// timedLayers are the calls the replay times, in report order. Each yields
// <name>_s (median seconds per call) and <name>_s_allocs (median heap
// allocations per call).
var timedLayers = []string{
	"pool.submit", "facade.solve", "tsp.parse", "tsp.derive",
	"aco.new", "aco.construct", "aco.update",
	"tensor.new", "tensor.construct", "tensor.twoopt", "tensor.update",
	"tensor.construct_w2", "tensor.twoopt_w2",
	"metrics.pheromone_stats", "core.construct", "core.update",
}

// A workload reaches only some layers; the replay still times the others
// on the workload's own instance and parameters (engines its jobs do not
// run, 2-opt where its jobs skip it, TSPLIB parsing of a named benchmark)
// so that every metric exists on every workload. Those are marked
// off-path in the report and move no end-to-end metric of the workload.

type callStats struct {
	secs   float64
	allocs uint64
	gcs    uint32
}

type replayer struct {
	w       *workload
	tr      *tracer
	job     int
	secs    map[string][]float64
	allocs  map[string][]float64
	offPath map[string]bool
	ms      runtime.MemStats
	reg     *antgpu.Metrics
	procs   int // the host's GOMAXPROCS
	// tensorWorkers is the engine worker count antgpud's defaults give a
	// tensor job, used when this workload's jobs run another backend.
	tensorWorkers int

	launches, bytes int64
	coreAllocs      uint64
	simPerJob       []float64
	coreJobs        int
}

// call times fn as one span and records its heap allocations and GC
// cycles. The memory-statistics reads sit outside the timed interval.
func (r *replayer) call(name string, fn func()) callStats {
	runtime.ReadMemStats(&r.ms)
	mallocs, gcs := r.ms.Mallocs, r.ms.NumGC
	id := r.tr.begin(name, r.job)
	fn()
	secs := r.tr.end(id)
	runtime.ReadMemStats(&r.ms)
	st := callStats{secs: secs, allocs: r.ms.Mallocs - mallocs, gcs: r.ms.NumGC - gcs}
	r.tr.spans[id].Allocs = st.allocs
	r.secs[name] = append(r.secs[name], st.secs)
	r.allocs[name] = append(r.allocs[name], float64(st.allocs))
	return st
}

// offCall is call for a layer the workload's jobs do not reach.
func (r *replayer) offCall(name string, fn func()) callStats {
	r.offPath[name] = true
	return r.call(name, fn)
}

type replayReport struct {
	jobs     int // jobs replayed
	failed   int // replayed jobs with at least one failure
	metrics  []metric
	failures []error

	// Per replayed job: facade overhead, pool overhead, and the facade's
	// time without derivation (what a cache-hit solve in the service does).
	facadeOver, poolOver, facade []float64
}

func backendOf(name string) (antgpu.Backend, error) {
	switch name {
	case "cpu":
		return antgpu.BackendCPU, nil
	case "gpu":
		return antgpu.BackendGPU, nil
	case "tensor":
		return antgpu.BackendTensor, nil
	}
	return 0, fmt.Errorf("unknown backend %q", name)
}

// replay re-runs the first w.replay measured jobs in-process. Each must
// reproduce the best_len (and on the gpu backend the simulated seconds)
// its HTTP run returned.
func replay(ctx context.Context, w *workload, jobs []job, outs []outcome, tr *tracer) *replayReport {
	// Under load the server runs one job per CPU at a time; one P gives a
	// replayed call about that share of the host. Only the _w2 calls get
	// the whole host back.
	procs := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(procs)
	reg := antgpu.NewMetrics()
	// The pool and the solves are set up the way antgpud's defaults set
	// them up: a metrics registry and an info-level logger with a flight
	// recorder, here writing to nowhere.
	lg := antgpu.NewLogger(io.Discard, antgpu.LoggerOptions{Level: slog.LevelInfo, Flight: antgpu.NewFlightRecorder(0)})
	pool := antgpu.NewPool(antgpu.PoolOptions{Metrics: reg, Logger: lg})
	r := &replayer{w: w, tr: tr, reg: reg, procs: procs, tensorWorkers: sched.WorkerShare(procs, procs),
		secs: map[string][]float64{}, allocs: map[string][]float64{}, offPath: map[string]bool{}}
	rep := &replayReport{}
	var gcs []float64
	_, miss0 := pool.CacheStats()
	for i := 0; i < w.replay && i < len(outs) && ctx.Err() == nil; i++ {
		o, j := &outs[i], &jobs[i]
		if !o.ok() {
			// Already counted as failed by the load run.
			continue
		}
		rep.jobs++
		r.job = i
		root := tr.begin("job", i)
		jobFailed := false
		fail := func(err error) {
			if !jobFailed {
				rep.failed++
			}
			jobFailed = true
			rep.failures = append(rep.failures, fmt.Errorf("job %d: %w", i, err))
		}

		// tsp: the service parses uploads and loads named benchmarks.
		var in *tsp.Instance
		var err error
		parse := func() { in, err = tsp.Parse(strings.NewReader(j.text)) }
		if w.bench == "" {
			r.call("tsp.parse", parse)
			if err == nil {
				err = in.Validate()
			}
		} else {
			r.offCall("tsp.parse", parse)
			if err == nil {
				in, err = antgpu.LoadBenchmark(w.bench)
			}
		}
		backend, berr := backendOf(o.status.Backend)
		if err = errors.Join(err, berr); err != nil {
			fail(err)
			tr.end(root)
			continue
		}
		p := antgpu.Params{Ants: w.ants, Seed: j.seed, Workers: o.status.Workers}.WithDefaults()
		var d *tsp.Derived
		derive := r.call("tsp.derive", func() { d, err = in.ComputeDerived(p.NN) })
		if err != nil {
			fail(err)
			tr.end(root)
			continue
		}

		opts := antgpu.SolveOptions{
			Algorithm: antgpu.AlgorithmAS, Backend: backend, Iterations: w.iters,
			Params:      antgpu.Params{Ants: w.ants, Seed: j.seed, Workers: o.status.Workers},
			LocalSearch: w.twoOpt, Metrics: reg, Logger: lg,
			OnIteration: func(antgpu.IterationEvent) {},
		}
		want := o.status.Result
		same := func(layer string, res *antgpu.Result, err error) {
			switch {
			case err != nil:
				fail(fmt.Errorf("%s: %w", layer, err))
			case res.BestLen != want.BestLen:
				fail(fmt.Errorf("%s returned best_len %d, the HTTP run %d", layer, res.BestLen, want.BestLen))
			case backend == antgpu.BackendGPU && res.SimulatedSeconds != want.SimulatedSeconds:
				fail(fmt.Errorf("%s returned simulated_seconds %v, the HTTP run %v", layer, res.SimulatedSeconds, want.SimulatedSeconds))
			}
		}

		var res *antgpu.Result
		_, m0 := pool.CacheStats()
		sub := r.call("pool.submit", func() { res, err = pool.Submit(ctx, antgpu.SolveRequest{Instance: in, Options: opts}, nil) })
		_, m1 := pool.CacheStats()
		same("Pool.Submit", res, err)
		fac := r.call("facade.solve", func() { res, err = antgpu.SolveContext(ctx, in, opts) })
		same("SolveContext", res, err)
		gcs = append(gcs, float64(fac.gcs))

		// The engine, phase by phase, the way the facade drives it for this
		// backend; then, on job 0, the engines this workload does not use.
		eng := r.drive(backend, in, d, p, true)
		if eng.err != nil {
			fail(eng.err)
		} else {
			same("engine phase replay", &antgpu.Result{BestLen: eng.best, SimulatedSeconds: eng.sim}, nil)
		}
		for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendTensor, antgpu.BackendGPU} {
			if i == 0 && b != backend {
				if off := r.drive(b, in, d, p, false); off.err != nil {
					fail(off.err)
				}
			}
		}
		tr.end(root)

		// A solve outside the pool derives its own data; inside it a cache
		// hit skips that, so the service's run compares with the rest.
		rep.facade = append(rep.facade, fac.secs-derive.secs)
		rep.facadeOver = append(rep.facadeOver, fac.secs-derive.secs-eng.secs)
		hit := 0.0
		if m1 == m0 {
			hit = derive.secs
		}
		rep.poolOver = append(rep.poolOver, sub.secs-fac.secs+hit)
	}
	_, miss1 := pool.CacheStats()

	for _, name := range timedLayers {
		note := fmt.Sprintf("median, n=%d calls", len(r.secs[name]))
		if r.offPath[name] {
			note += ", off this workload's path"
		}
		rep.metrics = append(rep.metrics,
			metric{name + "_s", median(r.secs[name]), "s", note},
			metric{name + "_s_allocs", median(r.allocs[name]), "count", note})
	}
	off := ""
	if w.want != "gpu" {
		off = ", off this workload's path"
	}
	perJob := func(v int64) float64 { return float64(v) / float64(max(r.coreJobs, 1)) }
	rep.metrics = append(rep.metrics,
		metric{"pool.cache_misses", float64(miss1 - miss0), "count", fmt.Sprintf("CacheStats delta over %d replayed jobs", rep.jobs)},
		metric{"core.sim_s", mean(r.simPerJob), "sim_s", "simulated seconds per job" + off},
		metric{"cuda.launches_per_job", perJob(r.launches), "count", "kernel launches per job" + off},
		metric{"cuda.allocs_per_launch", float64(r.coreAllocs) / float64(max(r.launches, 1)), "count",
			"host heap allocations of core.construct+core.update per launch" + off},
		metric{"cuda.bytes_per_job", perJob(r.bytes), "B", "global-memory bytes per job, computed from launch meters" + off},
		metric{"runtime.gc_per_job", mean(gcs), "count", fmt.Sprintf("GC cycles per facade.solve, mean of n=%d", len(gcs))},
	)
	return rep
}

type engineRun struct {
	best int64
	sim  float64
	secs float64 // on-path phase time: constructor, phases, statistics
	err  error
}

func (r *replayer) drive(b antgpu.Backend, in *tsp.Instance, d *tsp.Derived, p aco.Params, onPath bool) engineRun {
	switch b {
	case antgpu.BackendCPU:
		return r.driveACO(in, d, p, onPath)
	case antgpu.BackendTensor:
		return r.driveTensor(in, d, p, onPath)
	}
	return r.driveCore(in, d, p, onPath)
}

// driveACO runs the float64 CPU colony like the facade's cpu path.
func (r *replayer) driveACO(in *tsp.Instance, d *tsp.Derived, p aco.Params, onPath bool) engineRun {
	call := r.call
	if !onPath {
		call = r.offCall
	}
	var run engineRun
	var c *aco.Colony
	run.secs += call("aco.new", func() { c, run.err = aco.NewWithDerived(in, p, d) }).secs
	if run.err != nil {
		return run
	}
	c.ResetMeters()
	conv := r.conv(in, "cpu", onPath)
	for it := 0; it < r.w.iters; it++ {
		id := r.tr.begin("aco.iteration", r.job)
		run.secs += call("aco.construct", func() { c.ConstructTours(aco.FullProbabilistic) }).secs
		run.secs += call("aco.update", c.UpdatePheromone).secs
		if conv != nil {
			best, mean := lengthStats(c.Lengths)
			conv.RecordIteration(best, mean, c.BestLen)
			run.secs += r.call("metrics.pheromone_stats", func() { conv.RecordPheromone64(c.Pher, c.N()) }).secs
		}
		r.tr.end(id)
	}
	run.best = c.BestLen
	return run
}

// driveTensor runs the tensor engine like the facade's tensor path, at the
// worker count the service chose, then again at GOMAXPROCS workers, which
// must not change the result.
func (r *replayer) driveTensor(in *tsp.Instance, d *tsp.Derived, p aco.Params, onPath bool) engineRun {
	call := r.call
	if !onPath {
		call = r.offCall
	}
	var run engineRun
	if p.Workers == 0 {
		p.Workers = r.tensorWorkers
	}
	var e *tensor.Engine
	run.secs += call("tensor.new", func() { e, run.err = tensor.NewWithDerived(in, p, d) }).secs
	if run.err != nil {
		return run
	}
	defer e.Close()
	conv := r.conv(in, "tensor", onPath)
	for it := 0; it < r.w.iters; it++ {
		id := r.tr.begin("tensor.iteration", r.job)
		run.secs += call("tensor.construct", func() { e.ConstructTours(aco.FullProbabilistic) }).secs
		if r.w.twoOpt {
			run.secs += call("tensor.twoopt", e.LocalSearchTours).secs
		}
		run.secs += call("tensor.update", e.UpdatePheromone).secs
		if conv != nil {
			best, mean := lengthStats(e.Lengths)
			conv.RecordIteration(best, mean, e.BestLen)
			run.secs += r.call("metrics.pheromone_stats", func() { conv.RecordPheromone32(e.Tau(), e.N()) }).secs
		}
		r.tr.end(id)
	}
	run.best = e.BestLen
	if !r.w.twoOpt {
		// 2-opt on the job's final tours, after its result is taken.
		r.offCall("tensor.twoopt", e.LocalSearchTours)
	}

	p2 := p
	p2.Workers = r.procs
	e2, err := tensor.NewWithDerived(in, p2, d)
	if err != nil {
		run.err = err
		return run
	}
	defer e2.Close()
	runtime.GOMAXPROCS(r.procs)
	defer runtime.GOMAXPROCS(1)
	for it := 0; it < r.w.iters; it++ {
		r.offCall("tensor.construct_w2", func() { e2.ConstructTours(aco.FullProbabilistic) })
		if r.w.twoOpt {
			r.offCall("tensor.twoopt_w2", e2.LocalSearchTours)
		}
		e2.UpdatePheromone()
	}
	if e2.BestLen != run.best {
		run.err = fmt.Errorf("tensor engine at %d workers found %d, at %d workers %d", p2.Workers, e2.BestLen, e.Workers(), run.best)
	}
	if !r.w.twoOpt {
		r.offCall("tensor.twoopt_w2", e2.LocalSearchTours)
	}
	return run
}

// driveCore runs the simulated GPU engine like the facade's gpu path, with
// the facade's default kernel versions and hardware-counter observer.
func (r *replayer) driveCore(in *tsp.Instance, d *tsp.Derived, p aco.Params, onPath bool) engineRun {
	call := r.call
	if !onPath {
		call = r.offCall
	}
	var run engineRun
	dev := antgpu.TeslaM2050()
	dev.Metrics = metrics.NewHW(r.reg, dev)
	e, err := core.NewEngineWithOptions(dev, in, p, core.EngineOptions{Derived: d})
	if err != nil {
		run.err = err
		return run
	}
	defer e.Free()
	tv := core.TourDataParallelTexture
	if in.N() > 500 {
		tv = core.TourNNSharedTexture
	}
	conv := r.conv(in, "gpu", onPath)
	// account returns the stage's simulated seconds; the caller sums them
	// per iteration in the facade's order so that the total is bit-identical.
	account := func(st *core.StageResult, c callStats) float64 {
		run.secs += c.secs
		if st == nil {
			return 0
		}
		r.coreAllocs += c.allocs
		for _, k := range st.Kernels {
			r.launches++
			r.bytes += int64(k.Meter.GlobalBytes(dev))
		}
		return st.Seconds()
	}
	for it := 0; it < r.w.iters && run.err == nil; it++ {
		id := r.tr.begin("core.iteration", r.job)
		var st *core.StageResult
		c := call("core.construct", func() { st, run.err = e.ConstructTours(tv) })
		sim := account(st, c)
		var best int64
		if run.err == nil {
			_, best, run.err = e.ReadBest()
		}
		if run.err == nil {
			st = nil
			c = call("core.update", func() { st, run.err = e.UpdatePheromone(core.PherAtomicShared) })
			run.sim += sim + account(st, c)
		}
		if conv != nil && run.err == nil {
			conv.RecordIteration(float64(best), meanTourLength(e), bestOf(e))
			run.secs += r.call("metrics.pheromone_stats", func() { conv.RecordPheromone32(e.Pheromone(), e.N()) }).secs
		}
		r.tr.end(id)
	}
	run.best = bestOf(e)
	r.simPerJob = append(r.simPerJob, run.sim)
	r.coreJobs++
	return run
}

// conv is the convergence recorder the service's iteration sink installs,
// or nil for engines the workload's jobs do not run.
func (r *replayer) conv(in *tsp.Instance, backend string, onPath bool) *metrics.Convergence {
	if !onPath {
		return nil
	}
	return metrics.NewConvergenceWithSink(r.reg, in.Name, "as", backend, 0, func(metrics.IterationEvent) {})
}

func bestOf(e *core.Engine) int64 {
	_, l := e.Best()
	return l
}

func meanTourLength(e *core.Engine) float64 {
	s := 0.0
	for k := 0; k < e.Ants(); k++ {
		s += float64(e.In.TourLength(e.Tour(k)))
	}
	return s / float64(e.Ants())
}

func lengthStats(ls []int64) (best, mean float64) {
	best = math.Inf(1)
	for _, l := range ls {
		best = math.Min(best, float64(l))
		mean += float64(l)
	}
	return best, mean / float64(len(ls))
}

// printDerived reports the overheads the replay can only give as
// differences, and the tracing overhead against the untraced load run.
func (rep *replayReport) printDerived(w io.Writer, serviceRun float64) {
	fmt.Fprintf(w, "derived  facade overhead (facade.solve - tsp.derive - engine phases): median %.6f s, n=%d\n",
		median(rep.facadeOver), len(rep.facadeOver))
	fmt.Fprintf(w, "derived  pool overhead (pool.submit - facade.solve + tsp.derive on a cache hit): median %.6f s, n=%d\n",
		median(rep.poolOver), len(rep.poolOver))
	fmt.Fprintf(w, "derived  tracing overhead: facade.solve - tsp.derive median %.6f s traced vs service.run_s median %.6f s untraced (ratio %.3f)\n",
		median(rep.facade), serviceRun, median(rep.facade)/serviceRun)
}
