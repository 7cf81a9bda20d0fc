// Command acotsp solves TSP instances with the Ant System or one of its
// variants, on the sequential CPU baseline, on the simulated GPU with any of
// the paper's kernel versions, or on the float32 tensor engine.
//
// Usage:
//
//	acotsp -bench att48 -iters 50                       # CPU baseline
//	acotsp -bench pr1002 -backend gpu -device m2050     # GPU, defaults
//	acotsp -file my.tsp -backend gpu -tour 7 -pher 1    # explicit kernels
//	acotsp -bench kroC100 -backend gpu -trace           # per-iteration log
//	acotsp -bench att48 -alg mmas -variant full -trace  # any backend and algorithm
//	acotsp -bench att48 -backend gpu -profile \
//	       -traceout trace.json                         # profiler + Perfetto
//	acotsp -bench att48 -backend gpu \
//	       -inject rate=0.02,seed=7                     # fault-tolerant solve
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"antgpu"
	"antgpu/internal/aco"
	"antgpu/internal/tsp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acotsp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acotsp", flag.ContinueOnError)
	var (
		benchName = fs.String("bench", "", "paper benchmark instance name (att48 ... pr2392)")
		file      = fs.String("file", "", "TSPLIB file to solve instead of a named benchmark")
		iters     = fs.Int("iters", 20, "Ant System iterations")
		backend   = fs.String("backend", "cpu", "cpu, gpu (simulated) or tensor (float32 host engine)")
		device    = fs.String("device", "m2050", "simulated device: c1060 or m2050")
		tourV     = fs.Int("tour", 0, "tour construction version 1-8 (0 = auto)")
		pherV     = fs.Int("pher", 0, "pheromone update version 1-5 (0 = atomic+shared)")
		variant   = fs.String("variant", "nn", "construction rule of the cpu and tensor backends: nn or full (ACS ignores it)")
		seed      = fs.Uint64("seed", 1, "random seed")
		ants      = fs.Int("ants", 0, "ant count m (0 = one per city)")
		iterLog   = fs.Bool("trace", false, "log each iteration's best-so-far length and construct, 2-opt (-ls) and update times, in the backend's clock")
		alg       = fs.String("alg", "as", "algorithm: as, acs, mmas, eas or rank")
		ls        = fs.Bool("ls", false, "apply 2-opt local search to every ant's tour (AS only)")
		runs      = fs.Int("runs", 1, "independent runs with consecutive seeds, solved concurrently; reports the best")
		workers   = fs.Int("workers", 0, "worker goroutines for -runs (0 = GOMAXPROCS)")
		tourOut   = fs.String("tourout", "", "write the best tour to this TSPLIB .tour file")
		profile   = fs.Bool("profile", false, "profile every kernel launch and phase; print the per-kernel summary")
		traceOut  = fs.String("traceout", "", "write the profile as Chrome trace-event JSON (implies -profile)")
		inject    = fs.String("inject", "", "inject deterministic device faults, e.g. rate=0.02,sticky=0.1,seed=7 "+
			"(gpu backend; AS recovers via checkpoint/retry/CPU-failover, other algorithms fail fast)")
		metricsOut = fs.String("metricsout", "", "write the solve's Prometheus metrics exposition to this file "+
			"(\"-\" for stdout): kernel hardware counters, convergence gauges, solve outcomes")
		optimum = fs.Int64("optimum", 0, "known optimal tour length, enables the gap-to-optimum metric (with -metricsout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch *backend {
	case "cpu", "gpu", "tensor":
	default:
		return fmt.Errorf("unknown backend %q (want cpu, gpu or tensor)", *backend)
	}
	if *traceOut != "" {
		*profile = true
	}
	var reg *antgpu.Metrics
	if *metricsOut != "" {
		reg = antgpu.NewMetrics()
		defer func() {
			if err := writeMetrics(stdout, *metricsOut, reg); err != nil {
				fmt.Fprintln(stdout, "metrics:", err)
			}
		}()
	}
	var faults *antgpu.FaultPlan
	if *inject != "" {
		var err error
		if faults, err = antgpu.ParseFaultSpec(*inject); err != nil {
			return err
		}
		if *backend != "gpu" {
			return fmt.Errorf("-inject needs -backend gpu (faults live on the simulated device)")
		}
	}

	var in *antgpu.Instance
	var err error
	switch {
	case *file != "":
		in, err = antgpu.ParseTSPLIB(*file)
	case *benchName != "":
		in, err = antgpu.LoadBenchmark(*benchName)
	default:
		err = fmt.Errorf("need -bench <name> or -file <path>; benchmarks: %s",
			strings.Join(antgpu.Benchmarks(), ", "))
	}
	if err != nil {
		return err
	}

	p := antgpu.DefaultParams()
	p.Seed = *seed
	p.Ants = *ants

	fmt.Fprintf(stdout, "instance %s: %d cities (%s), %d ants, %d iterations\n",
		in.Name, in.N(), in.Type, p.AntCount(in.N()), *iters)

	// ACS and MMAS default their unset fields per field and take their seed
	// from Params, so only an explicit -ants needs carrying over. -trace
	// reads its stage times from the profile.
	opts := antgpu.SolveOptions{
		Params: p, Iterations: *iters, LocalSearch: *ls, Profile: *profile || *iterLog,
		Metrics: reg, Optimum: *optimum, Variant: aco.NNListConstruction,
	}
	if *variant == "full" {
		opts.Variant = aco.FullProbabilistic
	}
	switch strings.ToLower(*alg) {
	case "as":
	case "acs":
		opts.Algorithm = antgpu.AlgorithmACS
		opts.ACS.Ants = *ants
	case "mmas":
		opts.Algorithm = antgpu.AlgorithmMMAS
		opts.MMAS.Ants = *ants
	case "eas":
		opts.Algorithm = antgpu.AlgorithmEAS
	case "rank":
		opts.Algorithm = antgpu.AlgorithmRank
	default:
		return fmt.Errorf("unknown algorithm %q (want as, acs, mmas, eas or rank)", *alg)
	}

	label, clock := "CPU", "modelled CPU"
	switch *backend {
	case "tensor":
		opts.Backend, label, clock = antgpu.BackendTensor, "tensor", "host wall-clock"
	case "gpu":
		var dev *antgpu.Device
		switch strings.ToLower(*device) {
		case "c1060":
			dev = antgpu.TeslaC1060()
		case "m2050":
			dev = antgpu.TeslaM2050()
		default:
			return fmt.Errorf("unknown device %q (want c1060 or m2050)", *device)
		}
		fmt.Fprintf(stdout, "device: %s\n", dev)
		opts.Backend, opts.Device, opts.Faults = antgpu.BackendGPU, dev, faults
		opts.Tour, opts.Pher = antgpu.TourVersion(*tourV), antgpu.PherVersion(*pherV)
		label, clock = "GPU", "simulated GPU"
	}

	// -trace collects every run's best-so-far lengths through OnIteration;
	// under -runs each run's sink writes its own slice on a pool goroutine.
	// A -runs below 2 solves one run.
	var bests [][]int64
	if *iterLog {
		bests = make([][]int64, max(*runs, 1))
	}
	onIteration := func(i int) func(antgpu.IterationEvent) {
		if bests == nil {
			return nil
		}
		return func(ev antgpu.IterationEvent) { bests[i] = append(bests[i], ev.BestSoFar) }
	}

	var res *antgpu.Result
	var tr *antgpu.Trace
	if *runs > 1 {
		// Best-of over consecutive seeds, scheduled concurrently as one
		// batch: the runs share the instance's derived data through the
		// pool's cache, and GPU runs each solve on a private device clone.
		reqs := make([]antgpu.SolveRequest, *runs)
		for i := range reqs {
			reqs[i] = antgpu.SolveRequest{Instance: in, Options: opts}
			reqs[i].Options.Params.Seed = *seed + uint64(i)
			reqs[i].Options.OnIteration = onIteration(i)
		}
		rep, err := antgpu.SolveBatch(context.Background(), reqs,
			antgpu.PoolOptions{Workers: *workers, Metrics: reg})
		if err != nil {
			return err
		}
		best := -1
		for i, it := range rep.Results {
			if it.Err != nil {
				return fmt.Errorf("run %d (seed %d): %w", i, *seed+uint64(i), it.Err)
			}
			if best < 0 || it.Result.BestLen < rep.Results[best].Result.BestLen {
				best = i
			}
		}
		for i := range bests {
			fmt.Fprintf(stdout, "seed %d:\n", *seed+uint64(i))
			if err := writeIterLog(stdout, rep.Results[i].Result.Trace, bests[i], *ls); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "best of %d concurrent %s runs (seed %d): "+
			"%.3f s wall, %.3f s simulated total, cache %d hits / %d misses\n",
			*runs, label, *seed+uint64(best), rep.WallSeconds, rep.SimulatedSeconds,
			rep.CacheHits, rep.CacheMisses)
		res, tr = rep.Results[best].Result, rep.Trace
	} else {
		opts.OnIteration = onIteration(0)
		var err error
		if res, err = antgpu.Solve(in, opts); err != nil {
			return err
		}
		if bests != nil {
			if err := writeIterLog(stdout, res.Trace, bests[0], *ls); err != nil {
				return err
			}
		}
		tr = res.Trace
	}
	if !*profile {
		tr = nil
	}
	reportRecovery(stdout, res.Recovery)
	if err := report(stdout, in, res.BestTour, res.BestLen, res.SimulatedSeconds, clock); err != nil {
		return err
	}
	if err := writeTour(stdout, *tourOut, in, res.BestTour); err != nil {
		return err
	}
	return emitProfile(stdout, tr, *traceOut)
}

// writeIterLog prints one line per committed iteration of a profiled
// solve: its best-so-far length, as the solve's OnIteration events
// reported it, and the milliseconds of the construct, 2-opt (with ls) and
// update phases of its iteration span, on the backend's own clock. The
// recovery runtime retries a faulted iteration, so an iteration span that
// a fault event follows was an attempt and is skipped.
func writeIterLog(stdout io.Writer, tr *antgpu.Trace, best []int64, ls bool) error {
	stages := [...]string{"construct", "2-opt", "update"}
	var ms [][len(stages)]float64 // per committed iteration
	pending := false              // the last iteration span may yet prove an attempt
	for _, ev := range tr.Events() {
		switch {
		case ev.Cat == "phase" && ev.Name == "iteration":
			ms, pending = append(ms, [len(stages)]float64{}), true
		case ev.Cat == "fault" && pending:
			ms, pending = ms[:len(ms)-1], false
		case pending:
			for k, name := range stages {
				if ev.Name == name {
					ms[len(ms)-1][k] = ev.Dur * 1e3
				}
			}
		}
	}
	if len(ms) != len(best) {
		return fmt.Errorf("-trace: %d committed iteration spans for %d iterations", len(ms), len(best))
	}
	for i, st := range ms {
		fmt.Fprintf(stdout, "iter %3d: best %8d | construct %8.3f ms", i+1, best[i], st[0])
		if ls {
			fmt.Fprintf(stdout, " | 2-opt %8.3f ms", st[1])
		}
		fmt.Fprintf(stdout, " | update %8.3f ms\n", st[2])
	}
	return nil
}

// writeMetrics writes the registry's Prometheus exposition to path ("-"
// selects stdout). A nil registry writes nothing.
func writeMetrics(stdout io.Writer, path string, reg *antgpu.Metrics) error {
	if reg == nil {
		return nil
	}
	if path == "-" {
		fmt.Fprintln(stdout)
		return reg.WritePrometheus(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote metrics exposition to %s\n", path)
	return nil
}

// reportRecovery prints the fault-tolerant runtime's activity, if any.
func reportRecovery(stdout io.Writer, rep *antgpu.RecoveryReport) {
	if rep != nil {
		fmt.Fprintln(stdout, rep)
	}
}

// emitProfile prints the per-kernel summary and, when a path was given,
// writes the Chrome trace-event JSON (loadable in ui.perfetto.dev).
func emitProfile(stdout io.Writer, tr *antgpu.Trace, path string) error {
	if tr == nil {
		return nil
	}
	fmt.Fprintf(stdout, "\nprofile: %.4f ms simulated across %d events\n",
		tr.Seconds()*1e3, len(tr.Events()))
	if err := tr.WriteSummary(stdout); err != nil {
		return err
	}
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote Chrome trace JSON to %s\n", path)
	return nil
}

// writeTour saves the tour in TSPLIB TOUR format when a path was given.
func writeTour(stdout io.Writer, path string, in *antgpu.Instance, tour []int32) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tsp.WriteTour(f, in.Name+".tour", tour); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote best tour to %s\n", path)
	return nil
}

func report(stdout io.Writer, in *antgpu.Instance, tour []int32, best int64, secs float64, clock string) error {
	if err := in.ValidTour(tour); err != nil {
		return fmt.Errorf("INVALID RESULT: %w", err)
	}
	nn := in.TourLength(in.NearestNeighbourTour(0))
	fmt.Fprintf(stdout, "best tour length: %d (greedy NN baseline: %d, ratio %.3f)\n",
		best, nn, float64(best)/float64(nn))
	fmt.Fprintf(stdout, "%s time: %.3f ms\n", clock, secs*1e3)
	return nil
}
