// Command perfbench is the repository's benchmark: for one workload it
// starts fresh antgpud processes, drives one of them over HTTP with closed-
// loop clients, checks every result, and prints the end-to-end metrics; with
// -trace 1 it then replays the same jobs in-process and times every layer
// from outside. It is normally started by run.py, which builds antgpud and
// this command first:
//
//	python3 perfbench/run.py --workload svc-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; README.md defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

const (
	// maxMeasure hard-stops a measured phase whose prefix is still running,
	// so a pathologically slow build still ends within the time limit.
	maxMeasure = 100 * time.Second
	clients    = 2 // closed-loop clients, one per CPU of the reference host
	spawns     = 7 // servers started per run to time set-up; the last serves the load
)

type config struct {
	seed    uint64
	seconds float64
	trace   bool
	server  string // antgpud binary
	out     string // directory for server logs and span files
}

type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample count and provenance, printed, not gated
}

type result struct {
	workload          string
	attempted, failed int
	e2e, layer        []metric
}

func main() {
	// On SIGTERM or an interrupt the run stops handing out jobs, stops its
	// server and exits without a result.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Uint64("seed", 1, "workload seed: same seed, same job list")
	seconds := fs.Float64("seconds", 20, "minimum length of the measured phase")
	trace := fs.Int("trace", 0, "1 replays the jobs in-process and prints the per-layer metrics")
	server := fs.String("server", "", "antgpud binary to benchmark")
	out := fs.String("out", ".bench_build", "directory for server logs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, server: *server, out: *out}
	if cfg.server == "" || (*trace != 0 && *trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: need -server, -trace 0|1 and positive -seconds")
		return 2
	}
	var ws []workload
	if *name == "all" {
		ws = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
		ws = []workload{*w}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	var results []*result
	for i := range ws {
		r, err := runWorkload(ctx, cfg, &ws[i], stdout)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", ws[i].name, err)
			return 1
		}
		results = append(results, r)
	}
	line, err := summary(results, cfg.trace)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// summary renders the final JSON line. A single workload reports its
// metrics by name; "all" prefixes each with its workload.
func summary(rs []*result, trace bool) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	for _, r := range rs {
		out.Attempted += r.attempted
		out.Failed += r.failed
		ms := r.e2e
		if trace {
			ms = r.layer
		}
		for _, m := range ms {
			key := m.name
			if len(rs) > 1 {
				key = r.workload + "." + m.name
			}
			v := m.value
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// No sample survived: the run already counts failures.
				v, out.Failed = 0, out.Failed+1
			}
			out.Metrics[key] = value{v, m.unit}
		}
	}
	out.Correct = out.Failed == 0 && out.Attempted > 0
	data, err := json.Marshal(out)
	return string(data), err
}

func printMetrics(w io.Writer, title string, ms []metric) {
	fmt.Fprintln(w, title)
	for _, m := range ms {
		fmt.Fprintf(w, "  %-32s %-14.6g %-7s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// runWorkload makes one run: set-up spawns, warm-up, the measured closed
// loop, and with cfg.trace the in-process replay.
func runWorkload(ctx context.Context, cfg config, w *workload, stdout io.Writer) (*result, error) {
	warm, err := w.jobs(cfg.seed, streamWarm, spawns+w.warmup)
	if err != nil {
		return nil, err
	}
	meas, err := w.jobs(cfg.seed, streamMeasured, w.listLen)
	if err != nil {
		return nil, err
	}
	res := &result{workload: w.name}
	diag := newDiagnostics()
	cpu0, cpuErr := readCPUTimes()
	diag.refStart = referenceLoop()
	client := newClient()
	defer client.CloseIdleConnections()
	logPath := filepath.Join(cfg.out, "antgpud-"+w.name+".log")

	// Set-up: spawn → listening → first job done, several times; the last
	// server stays up for the load.
	var setups, listens []float64
	var srv *server
	for k := 0; k < spawns && ctx.Err() == nil; k++ {
		t0 := time.Now()
		if srv, err = startServer(cfg.server, logPath); err != nil {
			return nil, err
		}
		listens = append(listens, time.Since(t0).Seconds())
		o := runJob(ctx, client, srv.base, w, &warm[k])
		setups = append(setups, o.doneAt.Sub(t0).Seconds())
		res.count(&o, stdout, "set-up")
		if k < spawns-1 {
			if err := srv.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	diag.serverProcs, diag.listenMedianS = srv.workers, median(listens)
	diag.goSrv = serverGoVersion(client, srv.base)

	// The generator runs on one P during the load so that its own
	// scheduling and GC take as little of the server's CPUs as possible.
	prevProcs := runtime.GOMAXPROCS(1)
	diag.genProcs = 1
	warmOuts := make([]outcome, w.warmup)
	closedLoop(clients, &dispatcher{ctx: ctx, limit: w.warmup, prefix: w.warmup, maxDur: maxMeasure, start: time.Now()},
		func(i int) { warmOuts[i] = runJob(ctx, client, srv.base, w, &warm[spawns+i]) })
	for i := range warmOuts {
		res.count(&warmOuts[i], stdout, "warm-up")
	}

	// The resident set is sampled after about every hundredth prefix job,
	// so the reading depends on how many jobs ran, not on how fast.
	outs := make([]outcome, len(meas))
	every := max(1, w.prefix/100)
	var mu sync.Mutex
	var rss []float64
	d := &dispatcher{ctx: ctx, limit: len(meas), prefix: w.prefix, minDur: time.Duration(cfg.seconds * float64(time.Second)),
		maxDur: maxMeasure, start: time.Now()}
	closedLoop(clients, d, func(i int) {
		outs[i] = runJob(ctx, client, srv.base, w, &meas[i])
		if i < w.prefix && i%every == 0 {
			if v, err := srv.memMB("VmRSS"); err == nil {
				mu.Lock()
				rss = append(rss, v)
				mu.Unlock()
			}
		}
	})
	runtime.GOMAXPROCS(prevProcs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	outs = outs[:d.next]
	var wall time.Duration
	for i := range outs {
		res.count(&outs[i], stdout, "measured")
		wall = max(wall, outs[i].doneAt.Sub(d.start))
	}
	peakRSS, _ := srv.memMB("VmHWM")
	err = srv.stop()
	srv = nil
	if err != nil {
		return nil, err
	}
	diag.refEnd = referenceLoop()
	if cpu1, err := readCPUTimes(); err == nil && cpuErr == nil {
		diag.steal = stealRatio(cpu0, cpu1)
	}

	res.e2e = endToEnd(w, outs, d.start, setups, rss, stdout)
	fmt.Fprintf(stdout, "workload %s seed %d: closed loop, %d clients, %d jobs over %.2f s (min %.0f s and the first %d jobs)\n",
		w.name, cfg.seed, clients, len(outs), wall.Seconds(), cfg.seconds, w.prefix)
	printMetrics(stdout, "end-to-end", res.e2e)
	// Printed but not in the JSON line: error_ratio is 0 whenever nothing
	// fails (failed/attempted carry it there), and VmHWM jumps with GC
	// timing (rss_mb is the gated memory metric).
	failed := failedOf(outs)
	printMetrics(stdout, "end-to-end, not gated", []metric{
		{"error_ratio", float64(failed) / float64(len(outs)), "ratio", fmt.Sprintf("%d of %d measured jobs failed", failed, len(outs))},
		{"rss_peak_mb", peakRSS, "MB", "server VmHWM at the end of the run"},
	})
	diag.print(stdout)

	if cfg.trace {
		res.layer = serviceLayer(outs)
		tr := newTracer()
		rep := replay(ctx, w, meas, outs, tr)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.layer = append(res.layer, rep.metrics...)
		for _, f := range rep.failures {
			fmt.Fprintf(stdout, "FAIL replay %s: %v\n", w.name, f)
		}
		res.attempted += rep.jobs
		res.failed += rep.failed
		tr.finish()
		spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, cfg.seed))
		if err := tr.write(spans); err != nil {
			return nil, err
		}
		printMetrics(stdout, fmt.Sprintf("per-layer (traced replay of %d jobs; spans in %s)", rep.jobs, spans), res.layer)
		rep.printDerived(stdout, median(durations(outs, runSeconds)))
	}
	return res, nil
}

// count adds a checked job to the run's totals and prints why it failed.
func (r *result) count(o *outcome, w io.Writer, phase string) {
	r.attempted++
	if !o.ok() {
		r.failed++
		fmt.Fprintf(w, "FAIL %s %s job: %v\n", r.workload, phase, o.err)
	}
}

// endToEnd computes the user-visible metrics of the measured phase.
func endToEnd(w *workload, outs []outcome, start time.Time, setups, rss []float64, log io.Writer) []metric {
	var times []jobTime
	var ratios []float64
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue
		}
		times = append(times, jobTime{o.doneAt.Sub(start).Seconds(), o.latency.Seconds()})
		if i < w.prefix {
			ratios = append(ratios, o.ratio)
		}
	}
	ws := windowStats(times)
	if ws.beyond < minBeyond {
		fmt.Fprintf(log, "WARNING %s: job_p90_s is not valid: %d jobs beyond it, need %d\n", w.name, ws.beyond, minBeyond)
	}
	win := fmt.Sprintf("median over %d windows of n=%d jobs", ws.windows, ws.jobs)
	return []metric{
		{"job_p50_s", ws.p50, "s", win},
		{"job_p90_s", ws.p90, "s", win},
		{"throughput_jobs_s", ws.throughput, "jobs/s", win},
		{"setup_s", median(setups), "s", fmt.Sprintf("median of n=%d spawns, spawn to first job done", len(setups))},
		{"rss_mb", median(rss), "MB", fmt.Sprintf("median server VmRSS over n=%d readings across the first %d jobs", len(rss), w.prefix)},
		{"tour_ratio", mean(ratios), "ratio", fmt.Sprintf("mean best_len / greedy NN length over n=%d jobs", len(ratios))},
	}
}

func failedOf(outs []outcome) int {
	n := 0
	for i := range outs {
		if !outs[i].ok() {
			n++
		}
	}
	return n
}

func runSeconds(o *outcome) float64 { return o.status.Finished.Sub(*o.status.Started).Seconds() }

// durations applies f to every job that passed.
func durations(outs []outcome, f func(*outcome) float64) []float64 {
	var xs []float64
	for i := range outs {
		if outs[i].ok() {
			xs = append(xs, f(&outs[i]))
		}
	}
	return xs
}

// serviceLayer derives the service layer's metrics from the load run:
// client timings and the job record's timestamps.
func serviceLayer(outs []outcome) []metric {
	submit := durations(outs, func(o *outcome) float64 { return o.submit.Seconds() })
	queue := durations(outs, func(o *outcome) float64 { return o.status.Started.Sub(o.status.Created).Seconds() })
	deliver := durations(outs, func(o *outcome) float64 { return o.doneAt.Sub(*o.status.Finished).Seconds() })
	events := durations(outs, func(o *outcome) float64 { return float64(o.events) })
	rejected := 0
	for i := range outs {
		if outs[i].code == 429 {
			rejected++
		}
	}
	n := fmt.Sprintf("median, n=%d (load run)", len(submit))
	return []metric{
		{"service.submit_s", median(submit), "s", n},
		{"service.queue_s", median(queue), "s", n},
		{"service.run_s", median(durations(outs, runSeconds)), "s", n},
		{"service.deliver_s", median(deliver), "s", n},
		{"service.events_per_job", mean(events), "count", fmt.Sprintf("mean, n=%d", len(events))},
		{"service.rejected_429", float64(rejected), "count", fmt.Sprintf("of %d submits", len(outs))},
	}
}
