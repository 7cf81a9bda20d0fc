package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"antgpu"
)

// BatchConfig controls the batch-throughput benchmark. The zero value
// selects a small sweep suitable for CI: two instances, eight seeds each,
// five AS iterations per solve, GOMAXPROCS workers.
type BatchConfig struct {
	// Instances to solve; every instance is solved once per seed.
	Instances []string
	// Seeds is the number of independent runs (seeds 1..Seeds) per instance.
	Seeds int
	// Iterations per solve.
	Iterations int
	// Workers bounds the pool; 0 selects runtime.GOMAXPROCS(0).
	Workers int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Instances == nil {
		c.Instances = []string{"att48", "kroC100"}
	}
	if c.Seeds == 0 {
		c.Seeds = 8
	}
	if c.Iterations == 0 {
		c.Iterations = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// BatchResult is the batch-throughput measurement, shaped for the
// BENCH_batch.json trajectory: wall-clock speed-up of the concurrent
// scheduler over the same requests run sequentially, plus the cache and
// determinism evidence.
type BatchResult struct {
	Requests   int `json:"requests"`
	Workers    int `json:"workers"`
	Iterations int `json:"iterations"`
	// NumCPU and GoMaxProcs record the host the batch ran on.
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`

	// SequentialSeconds and BatchSeconds are host wall-clock times for the
	// same request list run through one-at-a-time Solve calls and through
	// SolveBatch.
	SequentialSeconds float64 `json:"sequential_seconds"`
	BatchSeconds      float64 `json:"batch_seconds"`
	// Speedup = SequentialSeconds / BatchSeconds.
	Speedup float64 `json:"speedup"`
	// SolvesPerSec is the batch throughput: Requests / BatchSeconds.
	SolvesPerSec float64 `json:"solves_per_sec"`

	// CacheHits/CacheMisses are the batch's derived-data cache counters;
	// CacheHitRate = hits / (hits + misses).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`

	// Identical reports that every batch result matched its sequential
	// counterpart byte for byte (tours, lengths, simulated seconds) — the
	// scheduler's determinism contract.
	Identical bool `json:"identical"`
	// SimulatedSeconds is the summed simulated device time of the batch,
	// identical between the sequential and concurrent runs.
	SimulatedSeconds float64 `json:"simulated_seconds"`
}

// BatchThroughput measures the batch scheduler against sequential solving:
// the same Instances x Seeds request list (GPU Ant System on a shared Tesla
// M2050 model) is run once through sequential Solve calls and once through
// SolveBatch, and the wall-clock ratio, throughput, cache traffic and
// result-identity are reported.
func BatchThroughput(cfg BatchConfig) (*BatchResult, error) {
	cfg = cfg.withDefaults()

	dev := antgpu.TeslaM2050() // shared across all requests: clone-on-solve
	var reqs []antgpu.SolveRequest
	for _, name := range cfg.Instances {
		in, err := antgpu.LoadBenchmark(name)
		if err != nil {
			return nil, err
		}
		for seed := 1; seed <= cfg.Seeds; seed++ {
			reqs = append(reqs, antgpu.SolveRequest{
				Instance: in,
				Options: antgpu.SolveOptions{
					Backend:    antgpu.BackendGPU,
					Device:     dev,
					Iterations: cfg.Iterations,
					Params:     antgpu.Params{Seed: uint64(seed)},
				},
			})
		}
	}

	res := &BatchResult{Requests: len(reqs), Workers: cfg.Workers, Iterations: cfg.Iterations,
		NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0)}

	seqStart := time.Now()
	seq := make([]*antgpu.Result, len(reqs))
	for i, r := range reqs {
		out, err := antgpu.Solve(r.Instance, r.Options)
		if err != nil {
			return nil, fmt.Errorf("sequential solve %d: %w", i, err)
		}
		seq[i] = out
	}
	res.SequentialSeconds = time.Since(seqStart).Seconds()

	rep, err := antgpu.SolveBatch(context.Background(), reqs,
		antgpu.PoolOptions{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	if n := rep.Errs(); n > 0 {
		return nil, fmt.Errorf("batch: %d of %d requests failed", n, len(reqs))
	}
	res.BatchSeconds = rep.WallSeconds
	res.Speedup = res.SequentialSeconds / res.BatchSeconds
	res.SolvesPerSec = float64(len(reqs)) / res.BatchSeconds
	res.CacheHits, res.CacheMisses = rep.CacheHits, rep.CacheMisses
	if total := rep.CacheHits + rep.CacheMisses; total > 0 {
		res.CacheHitRate = float64(rep.CacheHits) / float64(total)
	}
	res.SimulatedSeconds = rep.SimulatedSeconds

	res.Identical = true
	for i, it := range rep.Results {
		got, want := it.Result, seq[i]
		if got.BestLen != want.BestLen || got.SimulatedSeconds != want.SimulatedSeconds ||
			len(got.BestTour) != len(want.BestTour) {
			res.Identical = false
			break
		}
		for j := range got.BestTour {
			if got.BestTour[j] != want.BestTour[j] {
				res.Identical = false
				break
			}
		}
	}
	return res, nil
}

// WriteJSON writes the result as indented JSON (the BENCH_batch.json
// format).
func (r *BatchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Format writes a human-readable summary.
func (r *BatchResult) Format(w io.Writer) {
	fmt.Fprintf(w, "batch throughput: %d requests, %d workers, %d iterations each, %d CPUs, GOMAXPROCS %d\n",
		r.Requests, r.Workers, r.Iterations, r.NumCPU, r.GoMaxProcs)
	fmt.Fprintf(w, "  sequential %.3f s | batch %.3f s | speed-up %.2fx | %.1f solves/s\n",
		r.SequentialSeconds, r.BatchSeconds, r.Speedup, r.SolvesPerSec)
	fmt.Fprintf(w, "  cache %d hits / %d misses (%.0f%% hit rate) | identical results: %v | %.3f simulated s\n",
		r.CacheHits, r.CacheMisses, 100*r.CacheHitRate, r.Identical, r.SimulatedSeconds)
}
