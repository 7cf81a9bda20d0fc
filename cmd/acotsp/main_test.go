package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
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

// The per-iteration log drives the engine directly; with no -tour it must
// still pick the facade's kernels, and with -ls step the 2-opt iteration,
// and so solve the same run.
func TestIterLogSolvesTheSameRun(t *testing.T) {
	for _, extra := range [][]string{nil, {"-ls"}} {
		args := append([]string{"-bench", "att48", "-iters", "5", "-backend", "gpu"}, extra...)
		var plain, traced bytes.Buffer
		if err := run(args, &plain); err != nil {
			t.Fatal(err)
		}
		if err := run(append(args, "-trace"), &traced); err != nil {
			t.Fatal(err)
		}
		resultRE := regexp.MustCompile(`best tour length: .*\n.* time: .*\n`)
		want, got := resultRE.FindString(plain.String()), resultRE.FindString(traced.String())
		if want == "" || got != want {
			t.Fatalf("%v: -trace reports\n%s\nthe plain run\n%s", extra, got, want)
		}
	}
}

// The per-iteration log solves one seed, so it refuses -runs.
func TestIterLogRejectsRuns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "att48", "-iters", "2", "-backend", "gpu", "-runs", "2", "-trace"}, &out); err == nil {
		t.Fatal("-runs 2 with -trace should fail")
	}
}

// The per-iteration log steps the gpu AS engine only, so every other
// (backend, algorithm) pair refuses -trace instead of solving without it.
func TestIterLogRejectsOtherPairs(t *testing.T) {
	for _, extra := range [][]string{
		nil, // the cpu backend
		{"-backend", "gpu", "-alg", "mmas"},
		{"-backend", "tensor"},
	} {
		var out bytes.Buffer
		args := append([]string{"-bench", "att48", "-iters", "3", "-trace"}, extra...)
		if err := run(args, &out); err == nil {
			t.Errorf("%v: -trace should fail, printed\n%s", extra, out.String())
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
	if err := run([]string{"-bench", "att48", "-backend", "gpu", "-trace", "-inject", "rate=0.1"}, &out); err == nil {
		t.Fatal("-inject with -trace should fail")
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
