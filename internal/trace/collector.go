// Package trace is the structured profiler of the simulated GPU stack: a
// Collector observes every cuda.Launch on a device (via the
// cuda.Device.Observer hook), lays the kernels out on a simulated timeline,
// lets the engines wrap their algorithm phases (construction / choice /
// evaporation / deposit / reduction / 2-opt) in spans on the same timeline,
// and exports the result as a Chrome trace-event JSON loadable in Perfetto
// plus per-kernel summary tables — the per-kernel cost breakdown the
// paper's Tables II-IV are built from.
//
// The simulated GPU and the CPU colony stamp every event with simulated or
// modelled time, never wall-clock, so two of their runs with the same seed
// produce byte-identical traces. The tensor engine runs natively on the
// host: its construct, 2-opt and update leaves carry host wall-clock
// seconds, so its traces repeat only their event sequence.
package trace

import (
	"fmt"

	"antgpu/internal/cuda"
)

// Event is one entry on the simulated timeline: a kernel launch, an engine
// phase span, or a modelled CPU stage.
type Event struct {
	Name  string
	Cat   string  // "kernel", "phase", "cpu" or "fault"
	Start float64 // simulated seconds since the collector started
	Dur   float64 // simulated seconds; -1 while a phase span is still open
	// Kernel holds the launch detail of "kernel" events, nil otherwise.
	Kernel *KernelDetail
}

// KernelDetail is the per-launch record the observer hook captures.
type KernelDetail struct {
	Grid      cuda.Dim3
	Block     cuda.Dim3
	Stride    int
	Occupancy cuda.Occupancy
	Meter     cuda.Meter
	Breakdown cuda.TimeBreakdown
}

// Collector accumulates events on a per-engine simulated timeline. It is
// not safe for concurrent use: engines issue launches and spans serially,
// mirroring a single CUDA stream. The zero value is NOT ready to use;
// call NewCollector. A nil *Collector is a disabled profiler: Begin, End,
// Phase, Span and Fault do nothing on it, so engines call them unguarded.
type Collector struct {
	clock  float64
	events []Event
	open   []int // indices of open phase spans, innermost last

	// correlation (SetCorrelation): carried into the Chrome export so a
	// Perfetto timeline can be joined against the obslog stream by ID.
	requestID string
	jobID     string
}

// NewCollector returns an empty collector whose simulated clock starts at
// zero.
func NewCollector() *Collector {
	return &Collector{}
}

// ObserveLaunch implements cuda.LaunchObserver: it records the kernel on
// the simulated timeline and advances the clock by the launch's simulated
// duration. Install it with dev.Observer = collector (the engines'
// SetTracer does this).
func (c *Collector) ObserveLaunch(cfg *cuda.LaunchConfig, res *cuda.LaunchResult) {
	c.events = append(c.events, Event{
		Name:  res.Name,
		Cat:   "kernel",
		Start: c.clock,
		Dur:   res.Seconds,
		Kernel: &KernelDetail{
			Grid:      cfg.Grid,
			Block:     cfg.Block,
			Stride:    res.Stride,
			Occupancy: res.Occupancy,
			Meter:     res.Meter,
			Breakdown: res.Breakdown,
		},
	})
	c.clock += res.Seconds
}

// Begin opens a phase span at the current simulated time. Spans nest; every
// Begin must be paired with an End.
func (c *Collector) Begin(name string) {
	if c == nil {
		return
	}
	c.events = append(c.events, Event{Name: name, Cat: "phase", Start: c.clock, Dur: -1})
	c.open = append(c.open, len(c.events)-1)
}

// End closes the innermost open phase span; its duration is the simulated
// time of everything recorded inside it. End without a matching Begin is a
// no-op.
func (c *Collector) End() {
	if c == nil || len(c.open) == 0 {
		return
	}
	i := c.open[len(c.open)-1]
	c.open = c.open[:len(c.open)-1]
	c.events[i].Dur = c.clock - c.events[i].Start
}

// Phase opens a phase span and returns its closer, so call sites read
// `defer tr.Phase("name")()`.
func (c *Collector) Phase(name string) func() {
	if c == nil {
		return func() {}
	}
	c.Begin(name)
	return c.End
}

// Span records a leaf interval of the given simulated duration — the
// modelled CPU colony stages use it — and advances the clock.
func (c *Collector) Span(name string, seconds float64) {
	if c == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	c.events = append(c.events, Event{Name: name, Cat: "cpu", Start: c.clock, Dur: seconds})
	c.clock += seconds
}

// Fault records a fault or recovery interval of the given simulated
// duration — the fault-tolerant runtime uses it for injected faults,
// retry backoff, device resets and CPU failover — and advances the clock.
func (c *Collector) Fault(name string, seconds float64) {
	if c == nil {
		return
	}
	if seconds < 0 {
		seconds = 0
	}
	c.events = append(c.events, Event{Name: name, Cat: "fault", Start: c.clock, Dur: seconds})
	c.clock += seconds
}

// Merge appends other's timeline onto c, starting at c's current simulated
// clock — the batch scheduler uses it to lay many per-solve traces end to
// end on one mergeable timeline. Equivalent to MergeAt(other, c.Seconds()).
func (c *Collector) Merge(other *Collector) {
	c.MergeAt(other, c.clock)
}

// MergeAt copies other's events onto c's timeline with their start times
// shifted by offset (simulated seconds), and extends c's clock to cover the
// merged interval. Kernel details are copied, so the collectors stay
// independent afterwards. other must have every phase span closed; other is
// not modified. Merging inside an open span of c attributes the merged
// interval to that span, which is how the batch report labels per-request
// groups.
func (c *Collector) MergeAt(other *Collector, offset float64) {
	if other == nil {
		return
	}
	for _, e := range other.events {
		e.Start += offset
		if e.Kernel != nil {
			k := *e.Kernel
			e.Kernel = &k
		}
		c.events = append(c.events, e)
	}
	if end := offset + other.clock; end > c.clock {
		c.clock = end
	}
}

// SetCorrelation attaches the request/job identity of the solve this
// timeline belongs to. The IDs ride along into WriteChromeTrace's process
// metadata, so a Perfetto view names the request it shows and the trace
// can be joined against the structured log stream (which keys every event
// on the same request_id). Timestamps stay simulated: correlation adds
// identity, never wall-clock nondeterminism.
func (c *Collector) SetCorrelation(requestID, jobID string) {
	c.requestID = requestID
	c.jobID = jobID
}

// Correlation returns the attached request and job IDs ("" when unset).
func (c *Collector) Correlation() (requestID, jobID string) {
	return c.requestID, c.jobID
}

// Seconds returns the simulated time elapsed on the collector's timeline.
func (c *Collector) Seconds() float64 { return c.clock }

// Events returns the recorded timeline (kernels, phase spans, CPU stages)
// in record order. The returned slice is the collector's own; do not
// modify it.
func (c *Collector) Events() []Event { return c.events }

// KernelSeconds returns the total simulated time of all kernel events —
// by construction equal to the sum every engine's StageResults report.
func (c *Collector) KernelSeconds() float64 {
	t := 0.0
	for i := range c.events {
		if c.events[i].Cat == "kernel" {
			t += c.events[i].Dur
		}
	}
	return t
}

func (e *Event) String() string {
	return fmt.Sprintf("%s[%s] %.4f+%.4f ms", e.Name, e.Cat, e.Start*1e3, e.Dur*1e3)
}
