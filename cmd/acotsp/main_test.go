package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
)

var bestLenRE = regexp.MustCompile(`best tour length: (\d+)`)

// bestLen extracts the reported tour length; run() itself validates the
// tour (report fails the run on an invalid permutation), so a successful
// run with a plausible length is a full smoke check.
func bestLen(t *testing.T, out string) int {
	t.Helper()
	m := bestLenRE.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no best tour length in output:\n%s", out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil || n <= 0 {
		t.Fatalf("bad tour length %q", m[1])
	}
	return n
}

func TestSmokeCPUBackend(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "att48", "-seed", "7", "-iters", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	l := bestLen(t, out.String())
	// Optimum for the att48 stand-in family is ~19k; anything within 2x of
	// the greedy baseline bound is sane for 5 iterations.
	if l < 10000 || l > 60000 {
		t.Fatalf("implausible att48 tour length %d", l)
	}
}

func TestSmokeGPUBackendWithProfile(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	args := []string{"-bench", "att48", "-seed", "7", "-iters", "5",
		"-backend", "gpu", "-profile", "-traceout", traceFile}

	var out1 bytes.Buffer
	if err := run(args, &out1); err != nil {
		t.Fatal(err)
	}
	bestLen(t, out1.String())
	if !bytes.Contains(out1.Bytes(), []byte("profile:")) {
		t.Fatalf("no profile summary in output:\n%s", out1.String())
	}

	raw1, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw1, &parsed); err != nil {
		t.Fatalf("-traceout file is not valid trace JSON: %v", err)
	}
	if len(parsed.TraceEvents) < 10 {
		t.Fatalf("trace has only %d events", len(parsed.TraceEvents))
	}

	// Same seed, same everything: stdout and trace JSON are byte-identical.
	var out2 bytes.Buffer
	if err := run(args, &out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
		t.Fatal("same-seed runs printed different output")
	}
	raw2, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("same-seed runs wrote different trace JSON")
	}
}

func TestSmokeCPUProfile(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	err := run([]string{"-bench", "att48", "-seed", "7", "-iters", "3",
		"-profile", "-traceout", traceFile}, &out)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(raw) {
		t.Fatal("CPU-backend trace JSON invalid")
	}
	if !bytes.Contains(out.Bytes(), []byte("construct")) {
		t.Fatalf("CPU profile summary missing construct stage:\n%s", out.String())
	}
}

func TestSmokeIterLogWithProfile(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-bench", "att48", "-seed", "7", "-iters", "2",
		"-backend", "gpu", "-trace", "-profile"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("iter   1:")) {
		t.Fatalf("no per-iteration log:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("profile:")) {
		t.Fatalf("no profile summary in -trace path:\n%s", out.String())
	}
}

// iterPairs are the 13 solvable (backend, algorithm) pairs and AS + 2-opt
// on each backend, as acotsp flags.
func iterPairs() [][]string {
	var pairs [][]string
	for _, b := range []string{"cpu", "gpu", "tensor"} {
		for _, a := range []string{"as", "acs", "mmas", "eas", "rank"} {
			if b == "tensor" && (a == "eas" || a == "rank") {
				continue
			}
			pairs = append(pairs, []string{"-backend", b, "-alg", a})
		}
		pairs = append(pairs, []string{"-backend", b, "-ls"})
	}
	return pairs
}

var resultRE = regexp.MustCompile(`best tour length: .*\n.* time: .*\n`)

// resultLines returns the best-length and time lines of an acotsp output;
// the tensor backend's time is host wall-clock, so only its best-length
// line repeats from run to run.
func resultLines(out string, pair []string) string {
	res := resultRE.FindString(out)
	if pair[1] == "tensor" {
		res = bestLenRE.FindString(out)
	}
	return res
}

// -trace reads the solve's OnIteration events and profile beside the one
// solve, so every pair solves the same run as without it.
func TestIterLogSolvesTheSameRun(t *testing.T) {
	for _, pair := range iterPairs() {
		args := append([]string{"-bench", "att48", "-iters", "3"}, pair...)
		var plain, traced bytes.Buffer
		if err := run(args, &plain); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, "-trace"), &traced); err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		want, got := resultLines(plain.String(), pair), resultLines(traced.String(), pair)
		if want == "" || got != want {
			t.Errorf("%v: -trace reports\n%s\nthe plain run\n%s", pair, got, want)
		}
	}
}

// Every pair, not gpu AS alone, logs one line per iteration with its
// construct and update times, and its 2-opt time under -ls.
func TestIterLogEveryPair(t *testing.T) {
	const iters = 3
	for _, pair := range iterPairs() {
		var out bytes.Buffer
		args := append([]string{"-bench", "att48", "-iters", strconv.Itoa(iters), "-trace"}, pair...)
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", pair, err)
		}
		lineRE := guardLineRE
		if pair[len(pair)-1] == "-ls" {
			lineRE = lsLineRE
		}
		lines := lineRE.FindAllStringSubmatch(out.String(), -1)
		if n := len(iterLineRE.FindAllString(out.String(), -1)); n != iters || len(lines) != iters {
			t.Errorf("%v: %d iteration lines, %d of them with the pair's columns, for %d iterations:\n%s",
				pair, n, len(lines), iters, out.String())
			continue
		}
		for _, l := range lines {
			if construct, err := strconv.ParseFloat(l[2], 64); err != nil || construct <= 0 {
				t.Errorf("%v: no construct time in %q", pair, l[0])
			}
		}
	}
}

// -trace works beside -runs, -metricsout and -inject: each run logs one
// line per iteration after the batch, the metrics exposition still
// follows, and the recovered run logs the fault-free run's lines.
func TestSmokeIterLogWithOtherModes(t *testing.T) {
	base := []string{"-bench", "att48", "-seed", "7", "-iters", "6", "-backend", "gpu", "-trace"}
	for _, c := range []struct {
		extra []string
		lines int
		want  string
	}{
		{[]string{"-runs", "2"}, 12, "seed 8:\niter   1:"},
		{[]string{"-runs", "0"}, 6, "best tour length"},
		{[]string{"-metricsout", "-"}, 6, "# TYPE antgpu_iterations_total counter"},
	} {
		var out bytes.Buffer
		if err := run(append(base, c.extra...), &out); err != nil {
			t.Fatalf("%v: %v", c.extra, err)
		}
		if n := len(iterLineRE.FindAllString(out.String(), -1)); n != c.lines {
			t.Errorf("%v: %d iteration lines, want %d:\n%s", c.extra, n, c.lines, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%v: no %q in output:\n%s", c.extra, c.want, out.String())
		}
	}

	// The recovery runtime replays a faulted iteration exactly, so the
	// committed iterations log what the fault-free run logs.
	var clean, injected bytes.Buffer
	if err := run(base, &clean); err != nil {
		t.Fatal(err)
	}
	if err := run(append(base, "-inject", "rate=0.03,seed=9"), &injected); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`[1-9]\d* retries`).MatchString(injected.String()) {
		t.Fatalf("the injected run retried nothing:\n%s", injected.String())
	}
	if got, want := iterLines(injected.String()), iterLines(clean.String()); got != want {
		t.Errorf("injected -trace logged\n%sthe fault-free run\n%s", got, want)
	}
}

// -variant reaches MMAS, EAS and Rank on the cpu backend: the two rules
// solve differently, and each solves as antgpu.Solve does with that rule.
func TestVariantReachesEveryAlgorithm(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		flag string
		alg  antgpu.Algorithm
	}{{"mmas", antgpu.AlgorithmMMAS}, {"eas", antgpu.AlgorithmEAS}, {"rank", antgpu.AlgorithmRank}} {
		got := map[string]int{}
		for _, v := range []struct {
			flag string
			rule aco.Variant
		}{{"nn", aco.NNListConstruction}, {"full", aco.FullProbabilistic}} {
			var out bytes.Buffer
			if err := run([]string{"-bench", "att48", "-iters", "5", "-alg", a.flag, "-variant", v.flag}, &out); err != nil {
				t.Fatal(err)
			}
			got[v.flag] = bestLen(t, out.String())
			res, err := antgpu.Solve(in, antgpu.SolveOptions{Algorithm: a.alg, Variant: v.rule,
				Iterations: 5, Params: antgpu.Params{Seed: 1}})
			if err != nil {
				t.Fatal(err)
			}
			if int64(got[v.flag]) != res.BestLen {
				t.Errorf("%s -variant %s: acotsp %d, antgpu.Solve %d", a.flag, v.flag, got[v.flag], res.BestLen)
			}
		}
		if got["nn"] == got["full"] {
			t.Errorf("%s: -variant nn and full both solve to %d", a.flag, got["nn"])
		}
	}
}

func TestRunRejectsMissingInstance(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Fatal("run without -bench/-file should fail")
	}
}

func TestSmokeInject(t *testing.T) {
	base := []string{"-bench", "att48", "-seed", "7", "-iters", "6", "-backend", "gpu"}
	var clean bytes.Buffer
	if err := run(base, &clean); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(append(base, "-inject", "rate=0.03,seed=9"), &out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("recovery:")) {
		t.Fatalf("no recovery report in output:\n%s", out.String())
	}
	// The recovered run reports the same best length as the fault-free run.
	if got, want := bestLen(t, out.String()), bestLen(t, clean.String()); got != want {
		t.Fatalf("injected run best %d, fault-free best %d", got, want)
	}
}

func TestInjectRejectsBadUsage(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "att48", "-inject", "rate=0.1"}, &out); err == nil {
		t.Fatal("-inject on the CPU backend should fail")
	}
	if err := run([]string{"-bench", "att48", "-backend", "gpu", "-inject", "bogus"}, &out); err == nil {
		t.Fatal("malformed -inject spec should fail")
	}
}

func TestSmokeGPURuns(t *testing.T) {
	checkBestOfRuns(t, "gpu", "GPU", 4)
}

// TestSmokeRunsHostBackends: -runs takes the same batch path on the cpu
// and tensor backends as on gpu.
func TestSmokeRunsHostBackends(t *testing.T) {
	checkBestOfRuns(t, "cpu", "CPU", 3)
	checkBestOfRuns(t, "tensor", "tensor", 3)
}

// checkBestOfRuns runs -runs on the backend and checks the batch header,
// that the runs shared the instance's derived data, and that the best-of
// matches the best of the same seeds run one by one.
func checkBestOfRuns(t *testing.T, backend, label string, runs int) {
	t.Helper()
	var out bytes.Buffer
	err := run([]string{"-bench", "att48", "-seed", "7", "-iters", "3",
		"-backend", backend, "-runs", strconv.Itoa(runs), "-workers", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte(fmt.Sprintf("best of %d concurrent %s runs", runs, label))) {
		t.Fatalf("no best-of header in output:\n%s", out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte(fmt.Sprintf("cache %d hits / 1 misses", runs-1))) {
		t.Fatalf("runs did not share derived data:\n%s", out.String())
	}
	multi := bestLen(t, out.String())

	bestSolo := 0
	for s := 7; s < 7+runs; s++ {
		var solo bytes.Buffer
		if err := run([]string{"-bench", "att48", "-seed", strconv.Itoa(s), "-iters", "3",
			"-backend", backend}, &solo); err != nil {
			t.Fatal(err)
		}
		if l := bestLen(t, solo.String()); bestSolo == 0 || l < bestSolo {
			bestSolo = l
		}
	}
	if multi != bestSolo {
		t.Fatalf("%s: best-of-%d reported %d, sequential best is %d", backend, runs, multi, bestSolo)
	}
}

func TestSmokeMetricsOut(t *testing.T) {
	promFile := filepath.Join(t.TempDir(), "solve.prom")
	var out bytes.Buffer
	err := run([]string{"-bench", "att48", "-backend", "gpu", "-seed", "7", "-iters", "3",
		"-metricsout", promFile, "-optimum", "10628"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("wrote metrics exposition to")) {
		t.Fatalf("missing metrics write confirmation:\n%s", out.String())
	}
	raw, err := os.ReadFile(promFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`antgpu_kernel_launches_total{kernel="`,
		`antgpu_optimum_gap_ratio{instance="att48"`,
		`antgpu_solves_total{backend="gpu"`,
	} {
		if !bytes.Contains(raw, []byte(want)) {
			t.Fatalf("exposition file missing %q:\n%s", want, raw)
		}
	}

	// "-" streams the exposition to stdout instead.
	out.Reset()
	err = run([]string{"-bench", "att48", "-seed", "7", "-iters", "2", "-metricsout", "-"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(out.Bytes(), []byte("# TYPE antgpu_iterations_total counter")) {
		t.Fatalf("stdout exposition missing convergence counter:\n%s", out.String())
	}
}

// The gpu AS -trace lines of att48 at -iters 5 and seed 1, without and with
// -ls, as the engine-stepping log printed them: the best-so-far length and
// the construct and update stage times of every iteration, in simulated
// milliseconds. Under -ls the construct column carries the 2-opt kernels.
const (
	traceGuard = `iter   1: best    22962 | construct    0.136 ms | update    0.054 ms
iter   2: best    20194 | construct    0.136 ms | update    0.054 ms
iter   3: best    19337 | construct    0.136 ms | update    0.054 ms
iter   4: best    19337 | construct    0.136 ms | update    0.054 ms
iter   5: best    19337 | construct    0.136 ms | update    0.054 ms
`
	traceGuardLS = `iter   1: best    18575 | construct    0.320 ms | update    0.054 ms
iter   2: best    18401 | construct    0.253 ms | update    0.055 ms
iter   3: best    18401 | construct    0.238 ms | update    0.055 ms
iter   4: best    18401 | construct    0.229 ms | update    0.055 ms
iter   5: best    18399 | construct    0.222 ms | update    0.055 ms
`
)

var (
	iterLineRE  = regexp.MustCompile(`(?m)^iter .*\n`)
	guardLineRE = regexp.MustCompile(`(?m)^(iter .*) \| construct +([0-9.]+) ms( \| update .*)$`)
	lsLineRE    = regexp.MustCompile(`(?m)^(iter .*) \| construct +([0-9.]+) ms \| 2-opt +([0-9.]+) ms( \| update .*)$`)
)

// iterLines returns the per-iteration lines of an acotsp output.
func iterLines(out string) string {
	return strings.Join(iterLineRE.FindAllString(out, -1), "")
}

// TestIterLogGuard pins the gpu AS -trace lines of att48. Under -ls the log
// prints the 2-opt kernels apart from construction; their sum is the
// guard's construct column, up to the rounding of the two printed terms.
func TestIterLogGuard(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-bench", "att48", "-backend", "gpu", "-iters", "5", "-trace"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if got := iterLines(out.String()); got != traceGuard {
		t.Errorf("-trace printed\n%swant\n%s", got, traceGuard)
	}

	out.Reset()
	if err := run(append(args, "-ls"), &out); err != nil {
		t.Fatal(err)
	}
	got := lsLineRE.FindAllStringSubmatch(out.String(), -1)
	want := guardLineRE.FindAllStringSubmatch(traceGuardLS, -1)
	if len(got) != len(want) {
		t.Fatalf("-trace -ls printed %d iteration lines, want %d:\n%s", len(got), len(want), out.String())
	}
	ms := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, g := range got {
		w := want[i]
		sum := ms(g[2]) + ms(g[3])
		if g[1] != w[1] || g[4] != w[3] || math.Abs(sum-ms(w[2])) > 0.0015 {
			t.Errorf("-trace -ls printed\n%s\nwhere the guard has\n%s", g[0], w[0])
		}
	}
}
