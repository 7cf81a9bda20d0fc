package trace

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"
)

// KernelSummary aggregates every launch of one kernel name over the
// collected timeline — the rows of the paper-style per-kernel cost tables.
type KernelSummary struct {
	Name              string
	Calls             int
	Seconds           float64 // total simulated time
	Percent           float64 // share of total kernel time
	P50Seconds        float64 // median per-launch simulated duration
	P95Seconds        float64 // 95th-percentile per-launch simulated duration
	GlobalTx          int64   // global memory transactions (incl. texture misses)
	AtomicOps         int64
	AtomicSerialExtra float64 // serialised extra atomic operations
	DivergentExtra    float64 // divergence re-issues
	Sampled           bool    // any launch used a sampling stride > 1
}

// Millis returns the kernel's total simulated time in milliseconds.
func (k *KernelSummary) Millis() float64 { return k.Seconds * 1e3 }

// Summary aggregates the leaf events — kernel launches and modelled CPU
// stages — per name, ordered by total simulated time (descending, ties
// broken by name so output is stable).
func (c *Collector) Summary() []KernelSummary {
	byName := map[string]*KernelSummary{}
	durs := map[string][]float64{}
	var order []string
	for i := range c.events {
		e := &c.events[i]
		if e.Cat != "kernel" && e.Cat != "cpu" {
			continue
		}
		s := byName[e.Name]
		if s == nil {
			s = &KernelSummary{Name: e.Name}
			byName[e.Name] = s
			order = append(order, e.Name)
		}
		s.Calls++
		s.Seconds += e.Dur
		durs[e.Name] = append(durs[e.Name], e.Dur)
		if k := e.Kernel; k != nil {
			s.GlobalTx += k.Meter.GlobalTx()
			s.AtomicOps += k.Meter.AtomicOps
			s.AtomicSerialExtra += k.Meter.AtomicSerialExtra
			s.DivergentExtra += k.Meter.DivergentExtra
			if k.Stride > 1 {
				s.Sampled = true
			}
		}
	}
	total := 0.0
	for _, name := range order {
		total += byName[name].Seconds
	}
	out := make([]KernelSummary, 0, len(order))
	for _, name := range order {
		s := *byName[name]
		if total > 0 {
			s.Percent = 100 * s.Seconds / total
		}
		d := durs[name]
		sort.Float64s(d)
		s.P50Seconds = percentile(d, 50)
		s.P95Seconds = percentile(d, 95)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seconds != out[j].Seconds {
			return out[i].Seconds > out[j].Seconds
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// percentile returns the nearest-rank p-th percentile of sorted (ascending)
// durations: the smallest element with at least p% of the samples at or
// below it. An empty slice returns 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// WriteSummary writes the per-kernel aggregate table as aligned text,
// followed by a total row that equals the engines' accumulated simulated
// time.
func (c *Collector) WriteSummary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "kernel\tcalls\tms\t%\tp50 ms\tp95 ms\tglobal tx\tatomic ops\tatomic serial\tdiverge extra\t")
	for _, s := range c.Summary() {
		name := s.Name
		if s.Sampled {
			name += "*"
		}
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.1f\t%.4f\t%.4f\t%d\t%d\t%.0f\t%.0f\t\n",
			name, s.Calls, s.Millis(), s.Percent, s.P50Seconds*1e3, s.P95Seconds*1e3,
			s.GlobalTx, s.AtomicOps, s.AtomicSerialExtra, s.DivergentExtra)
	}
	total := 0.0
	for _, s := range c.Summary() {
		total += s.Seconds
	}
	fmt.Fprintf(tw, "total\t\t%.4f\t100.0\t\t\t\t\t\t\t\n", total*1e3)
	return tw.Flush()
}
