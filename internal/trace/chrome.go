package trace

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export. The format is the Trace Event Format consumed
// by Perfetto (ui.perfetto.dev) and chrome://tracing: a JSON object with a
// traceEvents array of "X" (complete) events whose ts/dur are microseconds.
// Timestamps come from the collector's clock, so the export of a simulated
// or modelled timeline is byte-identical across runs of the same seed (a
// tensor timeline carries host wall-clock leaves). Marshalling goes
// through structs (fixed field order) — no maps — to keep the byte stream
// deterministic.

// chromeEvent is one Trace Event Format entry.
type chromeEvent struct {
	Name string      `json:"name"`
	Cat  string      `json:"cat"`
	Ph   string      `json:"ph"`
	Ts   float64     `json:"ts"`            // microseconds
	Dur  float64     `json:"dur,omitempty"` // microseconds
	Pid  int         `json:"pid"`
	Tid  int         `json:"tid"`
	Args *chromeArgs `json:"args,omitempty"`
}

// chromeArgs carries the kernel detail into the Perfetto side panel.
type chromeArgs struct {
	Name              string  `json:"name,omitempty"`       // metadata events
	RequestID         string  `json:"request_id,omitempty"` // correlation (process metadata)
	JobID             string  `json:"job_id,omitempty"`
	Grid              string  `json:"grid,omitempty"`
	Block             string  `json:"block,omitempty"`
	Stride            int     `json:"sample_stride,omitempty"`
	OccupancyFraction float64 `json:"occupancy,omitempty"`
	OccupancyLimit    string  `json:"occupancy_limited_by,omitempty"`
	Bound             string  `json:"bound,omitempty"`
	ComputeMs         float64 `json:"compute_ms,omitempty"`
	MemoryMs          float64 `json:"memory_ms,omitempty"`
	LatencyMs         float64 `json:"latency_ms,omitempty"`
	Issues            float64 `json:"warp_issues,omitempty"`
	GlobalTx          int64   `json:"global_tx,omitempty"`
	AtomicOps         int64   `json:"atomic_ops,omitempty"`
	AtomicSerialExtra float64 `json:"atomic_serial_extra,omitempty"`
	DivergentExtra    float64 `json:"divergent_extra,omitempty"`
}

// chromeTrace is the top-level JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Chrome trace process/thread ids. Phases and kernels share one simulated
// stream thread so Perfetto nests them by containment; CPU stages get their
// own thread row.
const (
	chromePid    = 1
	chromeTidGPU = 1
	chromeTidCPU = 2
)

// WriteChromeTrace writes the timeline as Chrome trace-event JSON.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	out := chromeTrace{DisplayTimeUnit: "ms"}
	procName := "antgpu simulated timeline"
	if c.requestID != "" {
		procName += " · request " + c.requestID
	}
	out.TraceEvents = append(out.TraceEvents,
		chromeEvent{Name: "process_name", Cat: "__metadata", Ph: "M", Pid: chromePid,
			Args: &chromeArgs{Name: procName, RequestID: c.requestID, JobID: c.jobID}},
		chromeEvent{Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: chromePid, Tid: chromeTidGPU,
			Args: &chromeArgs{Name: "device stream"}},
		chromeEvent{Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: chromePid, Tid: chromeTidCPU,
			Args: &chromeArgs{Name: "modelled CPU"}},
	)
	for i := range c.events {
		e := &c.events[i]
		dur := e.Dur
		if dur < 0 { // span left open: extend to the current clock
			dur = c.clock - e.Start
		}
		ev := chromeEvent{
			Name: e.Name,
			Cat:  e.Cat,
			Ph:   "X",
			Ts:   e.Start * 1e6,
			Dur:  dur * 1e6,
			Pid:  chromePid,
			Tid:  chromeTidGPU,
		}
		if e.Cat == "cpu" {
			ev.Tid = chromeTidCPU
		}
		if k := e.Kernel; k != nil {
			ev.Args = &chromeArgs{
				Grid:              k.Grid.String(),
				Block:             k.Block.String(),
				Stride:            k.Stride,
				OccupancyFraction: k.Occupancy.Fraction,
				OccupancyLimit:    k.Occupancy.LimitedBy,
				Bound:             k.Breakdown.Bound,
				ComputeMs:         k.Breakdown.ComputeSeconds * 1e3,
				MemoryMs:          k.Breakdown.MemorySeconds * 1e3,
				LatencyMs:         k.Breakdown.LatencySeconds * 1e3,
				Issues:            k.Meter.Issues(),
				GlobalTx:          k.Meter.GlobalTx(),
				AtomicOps:         k.Meter.AtomicOps,
				AtomicSerialExtra: k.Meter.AtomicSerialExtra,
				DivergentExtra:    k.Meter.DivergentExtra,
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
