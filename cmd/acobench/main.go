// Command acobench regenerates the tables and figures of Cecilia et al.,
// "Parallelization Strategies for Ant Colony Optimisation on GPUs" (2011),
// on the simulated Tesla C1060 and M2050 devices.
//
// Usage:
//
//	acobench -all                 # every table and figure
//	acobench -table 2             # Table II (tour construction, C1060)
//	acobench -table 3|4           # pheromone update tables
//	acobench -figure 4a|4b|5      # speed-up figures
//	acobench -maxn 700            # drop instances larger than n=700
//	acobench -budget 100000000    # per-launch lane-op sampling budget
//	acobench -csv                 # CSV instead of aligned text
//	acobench -paper               # print the paper's published values too
//	acobench -profile             # per-kernel profile of one AS iteration
//	acobench -inject rate=0.02    # fault-injection demo vs the fault-free run
//	acobench -metrics             # instrumented batch; lint + print the Prometheus exposition
//	acobench -batch -batchjson BENCH_batch.json   # batch-scheduler throughput
//	acobench -hostbench           # host-performance harness: scalar vs warp-vector simulator paths
//	acobench -islands             # island-ensemble sweep incl. degraded-fleet scenarios (BENCH_islands.json)
//	acobench -cpuprofile cpu.pprof -memprofile mem.pprof   # profile the host process
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"antgpu"
	"antgpu/internal/bench"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "acobench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("acobench", flag.ContinueOnError)
	var (
		table    = fs.String("table", "", "table to regenerate: 1, 2, 3 or 4")
		figure   = fs.String("figure", "", "figure to regenerate: 4a, 4b or 5")
		all      = fs.Bool("all", false, "regenerate every table and figure")
		maxN     = fs.Int("maxn", 0, "drop instances with more than this many cities (0 = keep all)")
		budget   = fs.Int64("budget", 0, "per-launch lane-operation sampling budget (0 = default)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned text")
		paper    = fs.Bool("paper", false, "also print the paper's published values")
		ablate   = fs.String("ablate", "", "ablation study: theta, block or nn")
		quality  = fs.Int("quality", 0, "solution-quality table with this many iterations (0 = off)")
		converge = fs.String("converge", "", "convergence series on this instance (e.g. kroC100)")
		profile  = fs.Bool("profile", false, "profile one full AS iteration per device on att48")
		traceOut = fs.String("traceout", "", "with -profile, write the M2050 timeline as Chrome trace JSON")
		inject   = fs.String("inject", "", "fault-injection demo: run the GPU Ant System under this fault spec "+
			"(e.g. rate=0.02,seed=7) and compare against the fault-free run")
		metricsMode = fs.Bool("metrics", false, "run an instrumented batch, lint the Prometheus exposition, and print it "+
			"(non-zero exit on lint violations — the CI telemetry gate)")
		batch       = fs.Bool("batch", false, "batch-scheduler throughput benchmark: concurrent SolveBatch vs sequential solves")
		batchJSON   = fs.String("batchjson", "", "with -batch, also write the result as JSON (the BENCH_batch.json trajectory)")
		workers     = fs.Int("workers", 0, "with -batch, worker goroutines (0 = GOMAXPROCS)")
		seeds       = fs.Int("seeds", 0, "with -batch, independent seeds per instance (0 = default)")
		iters       = fs.Int("iters", 0, "with -batch, AS iterations per solve (0 = default)")
		hostbench   = fs.Bool("hostbench", false, "host-performance harness: scalar vs warp-vector path, ns per simulated lane-op")
		hostJSON    = fs.String("hostjson", "BENCH_hostperf.json", "with -hostbench, write the result as JSON to this path (empty = skip)")
		hostInst    = fs.String("hostinstance", "", "with -hostbench, instance to benchmark on (empty = default)")
		hostReps    = fs.Int("hostrepeats", 0, "with -hostbench, timed launches per kernel per path (0 = default)")
		islands     = fs.Bool("islands", false, "island-ensemble benchmark: quality and wall-clock vs island count and fault pressure, incl. a kill-island-at-50% scenario")
		islandsJSON = fs.String("islandsjson", "BENCH_islands.json", "with -islands, write the result as JSON to this path (empty = skip)")
		islandIters = fs.Int("islanditers", 0, "with -islands, iterations per island (0 = default)")
		islandRate  = fs.Float64("islandrate", 0, "with -islands, per-launch fault rate of the faulty scenario (0 = default)")
		tensorBench = fs.Bool("tensor", false, "tensor-engine benchmark: ns/ant-step and end-to-end throughput vs the CPU colony and the warp-vector simulator")
		tensorJSON  = fs.String("tensorjson", "BENCH_tensor.json", "with -tensor, write the result as JSON to this path (empty = skip)")
		tensorIters = fs.Int("tensoriters", 0, "with -tensor, AS iterations per engine (0 = default)")
		tensorGate  = fs.String("tensorgate", "", "run a CPU-vs-tensor smoke sweep and fail if the tensor speedup regresses >20% against this baseline JSON (the CI perf gate)")
		procs       = fs.Int("procs", 0, "set GOMAXPROCS for the whole run (0 = leave the runtime default) — pins the scheduler parallelism benchmark rows report")
		cpuProf     = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf     = fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *procs > 0 {
		runtime.GOMAXPROCS(*procs)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "acobench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "acobench: memprofile:", err)
			}
		}()
	}

	if *profile {
		return runProfile(stdout, *traceOut)
	}
	if *inject != "" {
		return runInject(stdout, *inject)
	}
	if *metricsMode {
		return runMetrics(stdout)
	}
	if *batch {
		return runBatch(stdout, *batchJSON, *workers, *seeds, *iters)
	}
	if *hostbench {
		return runHostBench(stdout, *hostJSON, *hostInst, *hostReps)
	}
	if *islands {
		return runIslands(stdout, *islandsJSON, *islandIters, *islandRate)
	}
	if *tensorBench {
		return runTensorBench(stdout, *tensorJSON, *tensorIters)
	}
	if *tensorGate != "" {
		return runTensorGate(stdout, *tensorGate, *tensorIters)
	}
	if !*all && *table == "" && *figure == "" && *ablate == "" && *quality == 0 && *converge == "" {
		fs.Usage()
		return fmt.Errorf("no mode selected")
	}

	cfg := bench.Config{MaxN: *maxN, SampleBudget: *budget}
	c1060 := cuda.TeslaC1060()
	m2050 := cuda.TeslaM2050()
	both := []*cuda.Device{c1060, m2050}

	emit := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		if *csv {
			if err := t.WriteCSV(stdout); err != nil {
				return err
			}
		} else {
			t.Format(stdout)
		}
		fmt.Fprintln(stdout)
		return nil
	}

	emitPaper := func(title string, instances []string, rows map[string][]float64, order []string) {
		if !*paper {
			return
		}
		t := &bench.Table{Title: title, Unit: "milliseconds, paper's hardware", Instances: instances}
		for _, name := range order {
			if vals, ok := rows[name]; ok {
				t.AddRow(name, vals)
			}
		}
		t.Format(stdout)
		fmt.Fprintln(stdout)
	}

	tableOrder := []string{
		"1. Baseline Version", "2. Choice Kernel", "3. Without CURAND", "4. NNList",
		"5. NNList + Shared Memory", "6. NNList + Shared&Texture Memory",
		"7. Increasing Data Parallelism", "8. Data Parallelism + Texture Memory",
		"Total speed-up attained",
	}
	pherOrder := []string{
		"1. Atomic Ins. + Shared Memory", "2. Atomic Ins.",
		"3. Instruction & Thread Reduction", "4. Scatter to Gather + Tilling",
		"5. Scatter to Gather", "Total slow-down incurred", "Total slow-downs attained",
	}

	want := func(name string) bool { return *all || *table == name }
	wantFig := func(name string) bool { return *all || *figure == name }

	if want("1") {
		fmt.Fprintln(stdout, "Table I: CUDA and hardware features (device presets)")
		for _, d := range both {
			fmt.Fprintf(stdout, "  %s | SPs/SM %d | SMs %d | total SPs %d | clock %.0f MHz | "+
				"threads/block %d | threads/SM %d | shared %d KB | mem %.0f GB | BW %.0f GB/s\n",
				d.Name, d.CoresPerSM, d.SMs, d.TotalCores(), d.ClockHz/1e6,
				d.MaxThreadsPerBlock, d.MaxThreadsPerSM, d.SharedMemPerSM/1024,
				float64(d.GlobalMemBytes)/(1<<30), d.BandwidthBytesPS/1e9)
		}
		fmt.Fprintln(stdout)
	}
	if want("2") {
		if err := emit(bench.TableII(c1060, cfg)); err != nil {
			return err
		}
		emitPaper("Paper Table II (Tesla C1060)", bench.PaperInstances, bench.PaperTableII, tableOrder)
	}
	if want("3") {
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = bench.PaperPherInstances
		}
		if err := emit(bench.TablePheromone(c1060, pcfg)); err != nil {
			return err
		}
		emitPaper("Paper Table III (Tesla C1060)", bench.PaperPherInstances, bench.PaperTableIII, pherOrder)
	}
	if want("4") {
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = bench.PaperPherInstances
		}
		if err := emit(bench.TablePheromone(m2050, pcfg)); err != nil {
			return err
		}
		emitPaper("Paper Table IV (Tesla M2050)", bench.PaperPherInstances, bench.PaperTableIV, pherOrder)
	}
	if wantFig("4a") {
		if err := emit(bench.Figure4a(both, cfg)); err != nil {
			return err
		}
		if *paper {
			fmt.Fprintf(stdout, "Paper: peaks ~%.2fx (C1060) / ~%.2fx (M2050) near pr1002, <1x for the smallest instances\n\n",
				bench.PaperFig4aPeak["Tesla C1060"], bench.PaperFig4aPeak["Tesla M2050"])
		}
	}
	if wantFig("4b") {
		if err := emit(bench.Figure4b(both, cfg)); err != nil {
			return err
		}
		if *paper {
			fmt.Fprintf(stdout, "Paper: up to ~%.0fx (C1060) / ~%.0fx (M2050)\n\n",
				bench.PaperFig4bPeak["Tesla C1060"], bench.PaperFig4bPeak["Tesla M2050"])
		}
	}
	if *converge != "" {
		if err := emit(bench.ConvergenceSeries(m2050, *converge, nil)); err != nil {
			return err
		}
	}

	if *quality > 0 {
		qcfg := cfg
		if qcfg.Instances == nil {
			qcfg.Instances = []string{"att48", "kroC100", "a280"}
		}
		if err := emit(bench.QualityTable(m2050, qcfg, *quality)); err != nil {
			return err
		}
	}

	switch *ablate {
	case "theta":
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = []string{"kroC100", "a280", "pcb442"}
		}
		if err := emit(bench.AblationTheta(c1060, pcfg, []int{32, 64, 128, 256, 512})); err != nil {
			return err
		}
	case "block":
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = []string{"att48", "kroC100", "a280", "pcb442"}
		}
		if err := emit(bench.AblationDataBlock(c1060, pcfg, []int{32, 64, 128, 256, 512})); err != nil {
			return err
		}
	case "nn":
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = []string{"kroC100", "a280", "pcb442"}
		}
		if err := emit(bench.AblationNN(c1060, pcfg, []int{10, 20, 30, 40, 60})); err != nil {
			return err
		}
	case "":
	default:
		return fmt.Errorf("unknown ablation %q (want theta, block or nn)", *ablate)
	}

	if wantFig("5") {
		pcfg := cfg
		if pcfg.Instances == nil {
			pcfg.Instances = bench.PaperPherInstances
		}
		if err := emit(bench.Figure5(both, pcfg)); err != nil {
			return err
		}
		if *paper {
			fmt.Fprintf(stdout, "Paper: up to ~%.2fx (C1060) / ~%.2fx (M2050) at pr1002, <1x at the small end on C1060\n\n",
				bench.PaperFig5Peak["Tesla C1060"], bench.PaperFig5Peak["Tesla M2050"])
		}
	}
	return nil
}

// runBatch measures the batch scheduler's wall-clock speed-up over
// sequential solving and its derived-data cache hit rate, printing the
// summary and optionally writing the BENCH_batch.json trajectory file.
func runBatch(stdout io.Writer, jsonPath string, workers, seeds, iters int) error {
	r, err := bench.BatchThroughput(bench.BatchConfig{Workers: workers, Seeds: seeds, Iterations: iters})
	if err != nil {
		return err
	}
	r.Format(stdout)
	if !r.Identical {
		return fmt.Errorf("batch results diverged from sequential solves")
	}
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	}
	return nil
}

// runHostBench measures the host cost of every ported kernel under the
// scalar reference path and the warp-vector fast path, printing the summary
// and writing the BENCH_hostperf.json trajectory file.
func runHostBench(stdout io.Writer, jsonPath, instance string, repeats int) error {
	r, err := bench.HostPerf(bench.HostPerfConfig{Instance: instance, Repeats: repeats})
	if err != nil {
		return err
	}
	r.Format(stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	}
	return nil
}

// runIslands sweeps the island-model ensemble over instance x island count
// x fault scenario (fault-free, transient faults, permanent kill at 50% of
// the victim's launches) and writes the BENCH_islands.json artifact.
func runIslands(stdout io.Writer, jsonPath string, iters int, rate float64) error {
	r, err := bench.Islands(bench.IslandsConfig{Iterations: iters, FaultRate: rate})
	if err != nil {
		return err
	}
	r.Format(stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	}
	return nil
}

// runTensorBench sweeps the tensor engine against the CPU colony and the
// warp-vector simulator across the TSPLIB benchmarks and writes the
// BENCH_tensor.json artifact.
func runTensorBench(stdout io.Writer, jsonPath string, iters int) error {
	r, err := bench.Tensor(bench.TensorConfig{Iterations: iters})
	if err != nil {
		return err
	}
	r.Format(stdout)
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", jsonPath)
	}
	return nil
}

// runTensorGate reruns a CPU-vs-tensor sweep (no simulator column — the
// gate only needs the speedup ratio) and fails if any instance's tensor
// speedup fell more than 20% below the committed baseline. The ratio of
// two same-process wall-clocks transfers across machines where raw
// ns/ant-step would not. The sweep runs at 1 worker and at GOMAXPROCS
// workers (deduplicated), so the gate covers both the serial path and the
// widest parallel configuration this machine can actually exercise.
func runTensorGate(stdout io.Writer, baselinePath string, iters int) error {
	f, err := os.Open(baselinePath)
	if err != nil {
		return err
	}
	baseline, err := bench.ReadTensorResult(f)
	f.Close()
	if err != nil {
		return err
	}
	gateWorkers := []int{1}
	if g := runtime.GOMAXPROCS(0); g > 1 {
		gateWorkers = append(gateWorkers, g)
	}
	current, err := bench.Tensor(bench.TensorConfig{Iterations: iters, SkipSim: true, Workers: gateWorkers})
	if err != nil {
		return err
	}
	current.Format(stdout)
	if err := bench.CompareTensor(baseline, current, 0.20); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "tensor gate passed against %s\n", baselinePath)
	return nil
}

// runInject runs the fault-tolerant GPU Ant System under an injected fault
// plan on a few benchmarks and reports whether the recovered result matches
// the fault-free run, plus the recovery activity (retries, resets,
// degradation to the CPU colony).
func runInject(stdout io.Writer, spec string) error {
	plan, err := cuda.ParseFaultSpec(spec)
	if err != nil {
		return err
	}
	const iters = 10
	fmt.Fprintf(stdout, "fault injection: %s, Tesla M2050, AS (v6 + atomic-shared), %d iterations\n\n", spec, iters)
	for _, name := range []string{"att48", "kroC100", "a280"} {
		in, err := antgpu.LoadBenchmark(name)
		if err != nil {
			return err
		}
		opts := antgpu.SolveOptions{Iterations: iters, Backend: antgpu.BackendGPU, Params: antgpu.Params{Seed: 1},
			Tour: antgpu.TourNNSharedTexture, Pher: antgpu.PherAtomicShared, Recovery: &antgpu.RecoveryOptions{}}
		clean, err := antgpu.Solve(in, opts)
		if err != nil {
			return fmt.Errorf("fault-free run on %s: %w", name, err)
		}
		opts.Faults = plan
		res, err := antgpu.Solve(in, opts)
		if err != nil {
			return fmt.Errorf("injected run on %s: %w", name, err)
		}
		rep := res.Recovery
		verdict := "IDENTICAL to fault-free"
		switch {
		case rep.Degraded:
			verdict = fmt.Sprintf("completed on CPU (fault-free best %d)", clean.BestLen)
		case res.BestLen != clean.BestLen:
			verdict = fmt.Sprintf("MISMATCH: fault-free best %d", clean.BestLen)
		}
		fmt.Fprintf(stdout, "%-8s best %8d  %9.3f ms  %s\n         %s\n", name, res.BestLen, res.SimulatedSeconds*1e3, verdict, rep)
	}
	return nil
}

// runProfile solves one profiled Ant System iteration on att48 for each
// device and prints the per-kernel summary — the profiler view of the
// per-kernel costs behind the paper's tables.
func runProfile(stdout io.Writer, traceOut string) error {
	in, err := tsp.LoadBenchmark("att48")
	if err != nil {
		return err
	}
	for _, dev := range []*cuda.Device{cuda.TeslaC1060(), cuda.TeslaM2050()} {
		res, err := antgpu.Solve(in, antgpu.SolveOptions{
			Params: antgpu.Params{Seed: 1}, Iterations: 1, Backend: antgpu.BackendGPU, Device: dev,
			Tour: antgpu.TourDataParallelTexture, Pher: antgpu.PherAtomicShared, Profile: true,
		})
		if err != nil {
			return err
		}
		tr := res.Trace
		fmt.Fprintf(stdout, "%s: one AS iteration on att48, %.4f ms simulated\n",
			dev.Name, tr.Seconds()*1e3)
		if err := tr.WriteSummary(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
		if traceOut != "" && dev.Name == "Tesla M2050" {
			f, err := os.Create(traceOut)
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
			fmt.Fprintf(stdout, "wrote Chrome trace JSON to %s\n", traceOut)
		}
	}
	return nil
}
