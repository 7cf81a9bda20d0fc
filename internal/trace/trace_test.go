package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// fakeLaunch builds a synthetic launch result for collector-only tests.
func fakeLaunch(name string, seconds float64) (*cuda.LaunchConfig, *cuda.LaunchResult) {
	cfg := &cuda.LaunchConfig{Grid: cuda.D1(4), Block: cuda.D1(64)}
	res := &cuda.LaunchResult{Name: name, Seconds: seconds, Stride: 1}
	res.Meter.AtomicOps = 8
	return cfg, res
}

func TestCollectorClockAndSpans(t *testing.T) {
	c := trace.NewCollector()

	c.Begin("iteration")
	cfg, res := fakeLaunch("k1", 1e-3)
	c.ObserveLaunch(cfg, res)
	cfg2, res2 := fakeLaunch("k2", 2e-3)
	c.ObserveLaunch(cfg2, res2)
	c.Span("host", 0.5e-3)
	c.End()

	if got := c.Seconds(); math.Abs(got-3.5e-3) > 1e-15 {
		t.Fatalf("clock = %g, want 3.5e-3", got)
	}
	ev := c.Events()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	if ev[0].Name != "iteration" || ev[0].Cat != "phase" {
		t.Fatalf("first event = %v, want iteration phase", ev[0])
	}
	if math.Abs(ev[0].Dur-3.5e-3) > 1e-15 {
		t.Fatalf("phase duration = %g, want 3.5e-3 (covers both kernels and the span)", ev[0].Dur)
	}
	if ev[1].Start != 0 || ev[1].Dur != 1e-3 {
		t.Fatalf("k1 at %g+%g, want 0+1e-3", ev[1].Start, ev[1].Dur)
	}
	if math.Abs(ev[2].Start-1e-3) > 1e-15 {
		t.Fatalf("k2 starts at %g, want after k1", ev[2].Start)
	}
	if ev[1].Kernel == nil || ev[1].Kernel.Meter.AtomicOps != 8 {
		t.Fatalf("kernel detail not captured: %+v", ev[1].Kernel)
	}
	if ev[3].Cat != "cpu" || math.Abs(ev[3].Start-3e-3) > 1e-15 {
		t.Fatalf("cpu span = %v, want cpu at 3e-3", ev[3])
	}

	// End without Begin must be a no-op.
	c.End()
	if len(c.Events()) != 4 {
		t.Fatal("stray End added events")
	}

	if got := c.KernelSeconds(); math.Abs(got-3e-3) > 1e-15 {
		t.Fatalf("KernelSeconds = %g, want 3e-3 (cpu span excluded)", got)
	}
}

// A nil collector is a disabled profiler: every recording method does
// nothing on it, and Phase hands back a closer that does nothing either.
func TestNilCollectorRecordsNothing(t *testing.T) {
	var c *trace.Collector
	c.Begin("iteration")
	c.Span("host", 1e-3)
	c.Fault("fault:launch", 1e-3)
	c.End()
	c.Phase("update")()
}

// Phase opens a span that its closer ends, covering what was recorded in
// between.
func TestPhaseClosesItsSpan(t *testing.T) {
	c := trace.NewCollector()
	end := c.Phase("update")
	c.Span("deposit", 2e-3)
	end()
	c.Span("after", 1e-3)
	ev := c.Events()
	if len(ev) != 3 || ev[0].Name != "update" || ev[0].Cat != "phase" || ev[0].Dur != 2e-3 {
		t.Fatalf("events %v, want an update phase of 2 ms around the deposit", ev)
	}
}

// A sampled launch reaches the timeline extrapolated: the step-sampled
// task-based construction and the ant-sampled scatter-to-gather update
// each record the kernel their stage reports.
func TestSampledLaunchesReachTheTimelineScaled(t *testing.T) {
	e, err := core.NewEngine(cuda.TeslaC1060(), tsp.MustLoadBenchmark("att48"), aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Free()
	e.SampleBudget = 1 << 12
	tr := trace.NewCollector()
	e.SetTracer(tr)
	construct, err := e.ConstructTours(core.TourChoiceKernel)
	if err != nil {
		t.Fatal(err)
	}
	update, err := e.UpdatePheromone(core.PherScatterGather)
	if err != nil {
		t.Fatal(err)
	}
	want := append(construct.Kernels, update.Kernels...)
	var got []trace.Event
	for _, ev := range tr.Events() {
		if ev.Cat == "kernel" {
			got = append(got, ev)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d kernel events for %d launches", len(got), len(want))
	}
	for i, k := range want {
		ev := got[i]
		if ev.Name != k.Name || ev.Dur != k.Seconds || ev.Kernel.Meter != k.Meter || ev.Kernel.Breakdown != k.Breakdown {
			t.Errorf("%s: timeline %.4f ms, stage %.4f ms", k.Name, ev.Dur*1e3, k.Millis())
		}
	}
}

func TestSummaryAggregatesAndOrders(t *testing.T) {
	c := trace.NewCollector()
	for i := 0; i < 3; i++ {
		cfg, res := fakeLaunch("big", 2e-3)
		c.ObserveLaunch(cfg, res)
	}
	cfg, res := fakeLaunch("small", 1e-3)
	res.Stride = 4
	c.ObserveLaunch(cfg, res)
	c.Span("host", 5e-3)

	s := c.Summary()
	if len(s) != 3 {
		t.Fatalf("got %d summary rows, want 3 (big, small, host)", len(s))
	}
	if s[0].Name != "big" || s[0].Calls != 3 || math.Abs(s[0].Seconds-6e-3) > 1e-15 {
		t.Fatalf("top row = %+v, want big x3 at 6e-3 s", s[0])
	}
	var small *trace.KernelSummary
	for i := range s {
		if s[i].Name == "small" {
			small = &s[i]
		}
	}
	if small == nil || !small.Sampled {
		t.Fatalf("small row missing or not flagged sampled: %+v", small)
	}
	pct := 0.0
	for _, row := range s {
		pct += row.Percent
	}
	if math.Abs(pct-100) > 1e-9 {
		t.Fatalf("percents sum to %g, want 100", pct)
	}

	var txt bytes.Buffer
	if err := c.WriteSummary(&txt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(txt.String(), "small*") {
		t.Fatalf("text summary does not mark sampled kernels:\n%s", txt.String())
	}
}

// engineTrace runs a short AS colony on the simulated GPU with a tracer
// attached and returns the collector plus the engine-reported seconds.
func engineTrace(t *testing.T) (*trace.Collector, float64) {
	t.Helper()
	in, err := tsp.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	p := aco.DefaultParams()
	p.Seed = 42
	e, err := core.NewEngine(cuda.TeslaM2050(), in, p)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.NewCollector()
	e.SetTracer(tr)
	secs := 0.0
	for i := 0; i < 2; i++ {
		res, err := e.Iterate(core.TourDataParallel, core.PherAtomicShared)
		if err != nil {
			t.Fatal(err)
		}
		secs += res.Seconds()
	}
	return tr, secs
}

func TestEngineTraceMatchesReportedSeconds(t *testing.T) {
	tr, secs := engineTrace(t)
	if secs <= 0 {
		t.Fatal("engine reported no simulated time")
	}
	if rel := math.Abs(tr.KernelSeconds()-secs) / secs; rel > 1e-9 {
		t.Fatalf("trace kernel total %.9g s vs engine total %.9g s (rel %g)",
			tr.KernelSeconds(), secs, rel)
	}
	sum := 0.0
	for _, row := range tr.Summary() {
		sum += row.Seconds
	}
	if rel := math.Abs(sum-secs) / secs; rel > 1e-9 {
		t.Fatalf("summary total %.9g s vs engine total %.9g s (rel %g)", sum, secs, rel)
	}
	// Phase spans must cover the same timeline: the two iteration spans
	// together span the whole clock.
	iters := 0.0
	for _, ev := range tr.Events() {
		if ev.Cat == "phase" && ev.Name == "iteration" {
			if ev.Dur < 0 {
				t.Fatal("iteration span left open")
			}
			iters += ev.Dur
		}
	}
	if rel := math.Abs(iters-secs) / secs; rel > 1e-9 {
		t.Fatalf("iteration spans total %.9g s vs engine total %.9g s", iters, secs)
	}
}

func TestChromeTraceParsesAndIsByteIdentical(t *testing.T) {
	tr1, _ := engineTrace(t)
	tr2, _ := engineTrace(t)

	var b1, b2 bytes.Buffer
	if err := tr1.WriteChromeTrace(&b1); err != nil {
		t.Fatal(err)
	}
	if err := tr2.WriteChromeTrace(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("same-seed runs produced different trace JSON")
	}

	var parsed struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b1.Bytes(), &parsed); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if parsed.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", parsed.DisplayTimeUnit)
	}
	kernels, metas := 0, 0
	for _, ev := range parsed.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
		case "X":
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative timestamp in %q: ts=%g dur=%g", ev.Name, ev.Ts, ev.Dur)
			}
			if ev.Cat == "kernel" {
				kernels++
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if metas != 3 {
		t.Fatalf("got %d metadata events, want 3", metas)
	}
	if kernels == 0 {
		t.Fatal("no kernel events in trace")
	}
}

func TestCPUColonyTraceSpans(t *testing.T) {
	in, err := tsp.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	p := aco.DefaultParams()
	p.Seed = 7
	c, err := aco.New(in, p)
	if err != nil {
		t.Fatal(err)
	}
	c.Tracer = trace.NewCollector()
	c.Iterate(aco.NNListConstruction)

	want := map[string]bool{
		"iteration": false, "update": false, // phases
		"construct": false, "evaporation": false, "deposit": false, "choice": false, // leaves
	}
	for _, ev := range c.Tracer.Events() {
		if _, ok := want[ev.Name]; ok {
			want[ev.Name] = true
		}
		if ev.Dur < 0 {
			t.Fatalf("span %q left open", ev.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("phase %q missing from CPU trace", name)
		}
	}
	if c.Tracer.Seconds() <= 0 {
		t.Fatal("CPU trace has no simulated time")
	}
	if len(c.Tracer.Summary()) == 0 {
		t.Fatal("CPU trace summary is empty")
	}
}

// TestSummaryPercentiles: p50/p95 are nearest-rank over the per-launch
// simulated durations of each kernel, independent of observation order.
func TestSummaryPercentiles(t *testing.T) {
	c := trace.NewCollector()
	// 20 launches at 1..20 ms, shuffled order: p50 = 10 ms, p95 = 19 ms.
	for _, ms := range []int{7, 3, 20, 1, 12, 9, 16, 5, 18, 2, 11, 8, 14, 4, 19, 6, 13, 10, 17, 15} {
		cfg, res := fakeLaunch("k", float64(ms)*1e-3)
		c.ObserveLaunch(cfg, res)
	}
	cfg, res := fakeLaunch("once", 4e-3)
	c.ObserveLaunch(cfg, res)

	for _, s := range c.Summary() {
		switch s.Name {
		case "k":
			if math.Abs(s.P50Seconds-10e-3) > 1e-12 {
				t.Errorf("k p50 = %g, want 10e-3", s.P50Seconds)
			}
			if math.Abs(s.P95Seconds-19e-3) > 1e-12 {
				t.Errorf("k p95 = %g, want 19e-3", s.P95Seconds)
			}
		case "once":
			// A single launch is its own p50 and p95.
			if s.P50Seconds != 4e-3 || s.P95Seconds != 4e-3 {
				t.Errorf("once percentiles = %g/%g, want 4e-3 both", s.P50Seconds, s.P95Seconds)
			}
		}
	}
}
