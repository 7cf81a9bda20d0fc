package metrics

import (
	"math"
	"testing"
)

// uniform returns an n×n matrix with every off-diagonal trail equal.
func uniform(n int, v float64) []float64 {
	m := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				m[i*n+j] = v
			}
		}
	}
	return m
}

func TestEntropyUniformIsOne(t *testing.T) {
	for _, n := range []int{3, 10, 48} {
		if got, _ := PheromoneStats64(uniform(n, 0.5), n); math.Abs(got-1) > 1e-12 {
			t.Errorf("n=%d: entropy of uniform matrix = %g, want 1", n, got)
		}
	}
}

func TestEntropyConvergedNearZero(t *testing.T) {
	// One dominant edge per city: the colony retracing a single tour.
	n := 20
	m := uniform(n, 1e-9)
	for i := 0; i < n; i++ {
		m[i*n+(i+1)%n] = 1
		m[((i+1)%n)*n+i] = 1
	}
	// A symmetric tour leaves two equal dominant edges per row (successor
	// and predecessor), so the converged floor is log(2)/log(n-1), not 0.
	floor := math.Log(2) / math.Log(float64(n-1))
	if got, _ := PheromoneStats64(m, n); got > floor+1e-6 {
		t.Fatalf("entropy of converged matrix = %g, want <= floor %g", got, floor)
	}
}

func TestLambdaBranchingLimits(t *testing.T) {
	n := 20
	// Uniform trails: hi == lo, so every edge clears the cut — n-1 per city.
	if _, got := PheromoneStats64(uniform(n, 0.5), n); got != float64(n-1) {
		t.Fatalf("λ of uniform matrix = %g, want %d", got, n-1)
	}
	// Converged on one tour: exactly the two tour edges per city remain.
	m := uniform(n, 1e-9)
	for i := 0; i < n; i++ {
		m[i*n+(i+1)%n] = 1
		m[((i+1)%n)*n+i] = 1
	}
	if _, got := PheromoneStats64(m, n); got != 2 {
		t.Fatalf("λ of converged matrix = %g, want 2", got)
	}
}

func TestFloat32VariantsAgree(t *testing.T) {
	n := 8
	m64 := uniform(n, 0.25)
	m64[1*n+2] = 0.9
	m64[2*n+1] = 0.9
	m32 := make([]float32, len(m64))
	for i, v := range m64 {
		m32[i] = float32(v)
	}
	e64, l64 := PheromoneStats64(m64, n)
	e32, l32 := PheromoneStats32(m32, n)
	if math.Abs(e64-e32) > 1e-6 {
		t.Errorf("entropy %g from float64 trails vs %g from float32", e64, e32)
	}
	if l64 != l32 {
		t.Errorf("λ-branching %g from float64 trails vs %g from float32", l64, l32)
	}
}

// TestStagnationMonotonicity drives a pheromone matrix through the Ant
// System update rule with every deposit on one fixed tour — the canonical
// stagnating run — and checks both statistics fall monotonically from their
// uniform-start limits towards their converged limits.
func TestStagnationMonotonicity(t *testing.T) {
	const n = 24
	const rho = 0.5
	m := uniform(n, 1.0)
	tour := make([]int, n)
	for i := range tour {
		tour[i] = i
	}

	prevE, prevL := PheromoneStats64(m, n)
	if math.Abs(prevE-1) > 1e-12 || prevL != n-1 {
		t.Fatalf("uniform start: entropy %g λ %g, want 1 and %d", prevE, prevL, n-1)
	}
	for step := 0; step < 30; step++ {
		for i := range m {
			m[i] *= 1 - rho
		}
		for i := 0; i < n; i++ {
			a, b := tour[i], tour[(i+1)%n]
			m[a*n+b] += 1
			m[b*n+a] += 1
		}
		e, l := PheromoneStats64(m, n)
		if e > prevE+1e-12 {
			t.Fatalf("step %d: entropy rose %g -> %g on a stagnating run", step, prevE, e)
		}
		if l > prevL+1e-12 {
			t.Fatalf("step %d: λ-branching rose %g -> %g on a stagnating run", step, prevL, l)
		}
		prevE, prevL = e, l
	}
	// Converged floor: two equal dominant edges per row (symmetric tour).
	floor := math.Log(2) / math.Log(float64(n-1))
	if prevE > floor+0.01 {
		t.Fatalf("final entropy %g, want near the converged floor %g", prevE, floor)
	}
	if prevL != 2 {
		t.Fatalf("final λ-branching %g, want 2 (one tour edge in, one out)", prevL)
	}
}

func TestConvergenceRecorder(t *testing.T) {
	r := New()
	c := NewConvergence(r, "att48", "as", "gpu", 10000)
	c.RecordIteration(11000, 11500.5, 10500)
	c.RecordPheromone64(uniform(4, 0.5), 4)

	snap := r.Snapshot()
	check := func(name string, want float64) {
		t.Helper()
		f := snap.Family(name)
		if f == nil {
			t.Fatalf("family %s missing", name)
		}
		s := f.Series[0]
		if math.Abs(s.Value-want) > 1e-12 {
			t.Errorf("%s = %g, want %g", name, s.Value, want)
		}
		if s.Labels["instance"] != "att48" || s.Labels["algorithm"] != "as" || s.Labels["backend"] != "gpu" {
			t.Errorf("%s labels = %v", name, s.Labels)
		}
	}
	check("antgpu_iteration_best_length", 11000)
	check("antgpu_iteration_mean_length", 11500.5)
	check("antgpu_best_length", 10500)
	check("antgpu_optimum_gap_ratio", 0.05)
	check("antgpu_pheromone_entropy", 1)
	check("antgpu_lambda_branching", 3)
	if f := snap.Family("antgpu_iterations_total"); f == nil || f.Series[0].Value != 1 {
		t.Fatal("iterations counter not incremented")
	}
}

func TestConvergenceRecorderDisabled(t *testing.T) {
	if c := NewConvergence(nil, "x", "as", "cpu", 0); c != nil {
		t.Fatal("nil registry must return a nil recorder")
	}
	var c *Convergence
	c.RecordIteration(1, 2, 3) // must not panic
	c.RecordPheromone64(uniform(4, 1), 4)
	c.RecordPheromone32(make([]float32, 16), 4)
}

func TestConvergenceNoGapWithoutOptimum(t *testing.T) {
	r := New()
	c := NewConvergence(r, "x", "as", "cpu", 0)
	c.RecordIteration(100, 110, 95)
	if f := r.Snapshot().Family("antgpu_optimum_gap_ratio"); f != nil {
		t.Fatal("gap gauge exists without a known optimum")
	}
}

// TestConvergenceSinkEmitsOrderedEvents: a recorder with a sink delivers
// one complete IterationEvent per RecordIteration/RecordPheromone pair, in
// iteration order, with the pheromone statistics folded into the event of
// the iteration they follow.
func TestConvergenceSinkEmitsOrderedEvents(t *testing.T) {
	var events []IterationEvent
	c := NewConvergenceWithSink(nil, "att48", "as", "cpu", 10000,
		func(ev IterationEvent) { events = append(events, ev) })
	if c == nil {
		t.Fatal("sink-only recorder (nil registry) must be enabled")
	}

	c.RecordIteration(11000, 11500, 10500)
	c.RecordPheromone64(uniform(4, 0.5), 4)
	c.RecordIteration(10800, 11100, 10400)
	c.RecordPheromone64(uniform(4, 0.25), 4)

	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for i, ev := range events {
		if ev.Iteration != i+1 {
			t.Errorf("event %d has iteration %d, want %d", i, ev.Iteration, i+1)
		}
	}
	first := events[0]
	if first.Best != 11000 || first.Mean != 11500 || first.BestSoFar != 10500 {
		t.Errorf("event 1 quality fields wrong: %+v", first)
	}
	if got, want := first.Gap, 10500.0/10000.0-1; math.Abs(got-want) > 1e-12 {
		t.Errorf("event 1 gap = %v, want %v", got, want)
	}
	// A uniform matrix has entropy 1 and λ-branching n-1.
	if first.Entropy < 0.999 || first.Entropy > 1.001 {
		t.Errorf("event 1 entropy = %v, want ~1 for uniform trails", first.Entropy)
	}
	if first.Lambda != 3 {
		t.Errorf("event 1 lambda = %v, want 3", first.Lambda)
	}

	// An unpaired iteration is flushed by the next one (or Flush).
	c.RecordIteration(10700, 11000, 10300)
	c.RecordIteration(10600, 10900, 10200)
	c.Flush()
	if len(events) != 4 {
		t.Fatalf("got %d events after unpaired iterations, want 4", len(events))
	}
	if events[2].Iteration != 3 || events[3].Iteration != 4 {
		t.Errorf("flushed events out of order: %+v", events[2:])
	}

	// NewConvergenceWithSink with a nil sink and nil registry stays disabled.
	if NewConvergenceWithSink(nil, "x", "as", "cpu", 0, nil) != nil {
		t.Error("nil sink + nil registry should return a nil recorder")
	}
}
