package bench

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

func TestBatchThroughput(t *testing.T) {
	r, err := BatchThroughput(BatchConfig{Instances: []string{"att48"}, Seeds: 6, Iterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Requests != 6 {
		t.Errorf("requests = %d, want 6", r.Requests)
	}
	if !r.Identical {
		t.Error("batch results diverged from their sequential counterparts")
	}
	if r.CacheMisses != 1 || r.CacheHits != 5 {
		t.Errorf("cache traffic = %d hits / %d misses, want 5 / 1", r.CacheHits, r.CacheMisses)
	}
	if r.SolvesPerSec <= 0 || r.BatchSeconds <= 0 || r.SequentialSeconds <= 0 {
		t.Errorf("degenerate timing: %+v", r)
	}
	if r.SimulatedSeconds <= 0 {
		t.Error("no simulated time accumulated")
	}
	if r.NumCPU < 1 || r.GoMaxProcs < 1 {
		t.Errorf("host shape not recorded: num_cpu %d, gomaxprocs %d", r.NumCPU, r.GoMaxProcs)
	}
	// The wall-clock speed-up needs real host parallelism; on single-core
	// runners the scheduler can only break even, so the >= 2x acceptance
	// bar applies from four schedulable CPUs up.
	if runtime.GOMAXPROCS(0) >= 4 && r.Speedup < 2 {
		t.Errorf("speed-up %.2fx with %d workers on %d CPUs, want >= 2x",
			r.Speedup, r.Workers, runtime.GOMAXPROCS(0))
	}

	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded BatchResult
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("BENCH_batch.json round-trip: %v", err)
	}
	if decoded != *r {
		t.Errorf("JSON round-trip changed the result: %+v vs %+v", decoded, *r)
	}
}
