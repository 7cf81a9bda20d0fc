package antgpu_test

import (
	"testing"

	"antgpu"
)

func TestSolveCPUBackend(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	res, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidTour(res.BestTour); err != nil {
		t.Fatalf("best tour invalid: %v", err)
	}
	if res.BestLen != in.TourLength(res.BestTour) {
		t.Error("reported length does not match tour")
	}
	if res.SimulatedSeconds <= 0 {
		t.Error("no modelled CPU time reported")
	}
}

func TestSolveGPUBackendBothDevices(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, dev := range []*antgpu.Device{antgpu.TeslaC1060(), antgpu.TeslaM2050()} {
		res, err := antgpu.Solve(in, antgpu.SolveOptions{
			Iterations: 3,
			Backend:    antgpu.BackendGPU,
			Device:     dev,
		})
		if err != nil {
			t.Fatalf("%s: %v", dev.Name, err)
		}
		if err := in.ValidTour(res.BestTour); err != nil {
			t.Fatalf("%s: best tour invalid: %v", dev.Name, err)
		}
		if res.SimulatedSeconds <= 0 {
			t.Errorf("%s: no simulated time", dev.Name)
		}
	}
}

func TestSolveGPUVersionSelection(t *testing.T) {
	in, err := antgpu.LoadBenchmark("kroC100")
	if err != nil {
		t.Fatal(err)
	}
	res, err := antgpu.Solve(in, antgpu.SolveOptions{
		Iterations: 2,
		Backend:    antgpu.BackendGPU,
		Tour:       antgpu.TourNNList,
		Pher:       antgpu.PherAtomic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := in.ValidTour(res.BestTour); err != nil {
		t.Fatal(err)
	}
}

func TestSolveQualityComparableAcrossBackends(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	gpu, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 10, Backend: antgpu.BackendGPU})
	if err != nil {
		t.Fatal(err)
	}
	// Same algorithm, different selection mechanics: lengths should be in
	// the same ballpark (within 30% of each other).
	lo, hi := cpu.BestLen, gpu.BestLen
	if lo > hi {
		lo, hi = hi, lo
	}
	if float64(hi) > 1.3*float64(lo) {
		t.Errorf("backends diverge in quality: CPU %d vs GPU %d", cpu.BestLen, gpu.BestLen)
	}
}

func TestBenchmarksList(t *testing.T) {
	names := antgpu.Benchmarks()
	if len(names) != 7 || names[0] != "att48" || names[6] != "pr2392" {
		t.Errorf("Benchmarks() = %v", names)
	}
	// Returned slice must be a copy.
	names[0] = "mutated"
	if antgpu.Benchmarks()[0] != "att48" {
		t.Error("Benchmarks() exposes internal state")
	}
}

func TestSolveRejectsUnknownBackend(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := antgpu.Solve(in, antgpu.SolveOptions{Backend: antgpu.Backend(9)}); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestSolveWithLocalSearch(t *testing.T) {
	in, err := antgpu.LoadBenchmark("kroC100")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
		plain, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 5, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		ls, err := antgpu.Solve(in, antgpu.SolveOptions{Iterations: 5, Backend: backend, LocalSearch: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := in.ValidTour(ls.BestTour); err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if ls.BestLen >= plain.BestLen {
			t.Errorf("backend %d: AS+2opt (%d) should beat plain AS (%d)", backend, ls.BestLen, plain.BestLen)
		}
	}
}

func TestSolveACSBothBackends(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
		res, err := antgpu.Solve(in, antgpu.SolveOptions{
			Algorithm: antgpu.AlgorithmACS, Iterations: 10, Backend: backend,
		})
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if err := in.ValidTour(res.BestTour); err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		nn := in.TourLength(in.NearestNeighbourTour(0))
		if float64(res.BestLen) > 1.2*float64(nn) {
			t.Errorf("backend %d: ACS best %d far from greedy %d", backend, res.BestLen, nn)
		}
	}
}

// TestSolveACSSteepBeta: at β = 12, τ·η^β underflows float32 to zero on
// long edges, so late in a tour the GPU ACS kernel sees choice rows that
// are zero on every unvisited city. It once crowned a visited city there
// and failed with "city 0 visited twice"; both backends must return valid
// tours on both instances.
func TestSolveACSSteepBeta(t *testing.T) {
	for _, name := range []string{"att48", "kroC100"} {
		in, err := antgpu.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
			res, err := antgpu.Solve(in, antgpu.SolveOptions{
				Algorithm: antgpu.AlgorithmACS, Iterations: 5, Backend: backend,
				ACS: antgpu.ACSParams{Params: antgpu.Params{Beta: 12}},
			})
			if err != nil {
				t.Fatalf("%s backend %d: %v", name, backend, err)
			}
			if err := in.ValidTour(res.BestTour); err != nil {
				t.Fatalf("%s backend %d: %v", name, backend, err)
			}
		}
	}
}

func TestSolveMMASBothBackends(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
		res, err := antgpu.Solve(in, antgpu.SolveOptions{
			Algorithm: antgpu.AlgorithmMMAS, Iterations: 10, Backend: backend,
		})
		if err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if err := in.ValidTour(res.BestTour); err != nil {
			t.Fatalf("backend %d: %v", backend, err)
		}
		if res.SimulatedSeconds <= 0 {
			t.Errorf("backend %d: no simulated time", backend)
		}
	}
}

func TestSolveEASAndRankBothBackends(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []antgpu.Algorithm{antgpu.AlgorithmEAS, antgpu.AlgorithmRank} {
		for _, backend := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU} {
			res, err := antgpu.Solve(in, antgpu.SolveOptions{
				Algorithm: alg, Iterations: 8, Backend: backend,
			})
			if err != nil {
				t.Fatalf("alg %d backend %d: %v", alg, backend, err)
			}
			if err := in.ValidTour(res.BestTour); err != nil {
				t.Fatalf("alg %d backend %d: %v", alg, backend, err)
			}
			nn := in.TourLength(in.NearestNeighbourTour(0))
			if float64(res.BestLen) > 1.2*float64(nn) {
				t.Errorf("alg %d backend %d: best %d far from greedy %d", alg, backend, res.BestLen, nn)
			}
		}
	}
}
