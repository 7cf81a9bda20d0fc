package core_test

import (
	"fmt"
	"math"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/tsp"
)

// equivOut captures everything the scalar/vector comparison checks: the
// Meter of every kernel launched, and the raw bits of every externally
// visible buffer after the full sequence.
type equivOut struct {
	names  []string
	meters []cuda.Meter
	bufs   []uint32
}

// runVectorEquivSequence drives every ported kernel once — choice, random
// fill, data-parallel construction with and without texture, all five
// pheromone versions, and (when unsampled) the 2-opt local search — and
// snapshots meters and buffers. A tourOnly shape stops after construction.
func runVectorEquivSequence(t *testing.T, dev *cuda.Device, shape equivShape, vector, serial bool, budget int64) equivOut {
	t.Helper()
	in := tsp.MustLoadBenchmark(shape.instance)
	e, err := core.NewEngineWithOptions(dev, in, aco.DefaultParams(), core.EngineOptions{DataBlockThreads: shape.threads})
	if err != nil {
		t.Fatal(err)
	}
	e.Vector = vector
	e.ForceSerial = serial
	e.SampleBudget = budget

	var out equivOut
	add := func(name string, ks []*cuda.LaunchResult, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, k := range ks {
			out.names = append(out.names, fmt.Sprintf("%s/%s", name, k.Name))
			out.meters = append(out.meters, k.Meter)
		}
	}

	r, err := e.ChoiceKernel()
	add("choice", []*cuda.LaunchResult{r}, err)
	r, err = e.FillRandoms()
	add("rngfill", []*cuda.LaunchResult{r}, err)
	for _, tv := range []core.TourVersion{core.TourDataParallel, core.TourDataParallelTexture} {
		s, err := e.ConstructTours(tv)
		var ks []*cuda.LaunchResult
		if s != nil {
			ks = s.Kernels
		}
		add(tv.String(), ks, err)
	}
	if !shape.tourOnly {
		for _, pv := range core.PherVersions {
			s, err := e.UpdatePheromone(pv)
			var ks []*cuda.LaunchResult
			if s != nil {
				ks = s.Kernels
			}
			add(pv.String(), ks, err)
		}
		if budget == 0 {
			s, err := e.LocalSearchKernel()
			var ks []*cuda.LaunchResult
			if s != nil {
				ks = s.Kernels
			}
			add("twoopt", ks, err)
		}
	}

	for _, v := range e.Pheromone() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for _, v := range e.ChoiceData() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for _, v := range e.Lengths() {
		out.bufs = append(out.bufs, math.Float32bits(v))
	}
	for k := 0; k < e.Ants(); k++ {
		for _, c := range e.Tour(k) {
			out.bufs = append(out.bufs, uint32(c))
		}
	}
	return out
}

// equivShape is one (instance, data-parallel block size) the equivalence
// sweep runs.
type equivShape struct {
	name     string // subtest prefix, empty for the original shape
	instance string
	threads  int // EngineOptions.DataBlockThreads
	// tourOnly runs serial mode only, and only the kernels up to the
	// data-parallel construction: the pheromone and 2-opt kernels do not
	// depend on DataBlockThreads, and on kroC100 their scalar twins take
	// seconds.
	tourOnly bool
}

// TestVectorScalarEquivalence sweeps every ported kernel across both device
// models and the serial, parallel and block-sampled execution modes,
// asserting that the warp-vector fast path and the scalar reference path
// produce identical Meter structs and byte-identical buffers.
func TestVectorScalarEquivalence(t *testing.T) {
	devs := map[string]func() *cuda.Device{
		"C1060": cuda.TeslaC1060,
		"M2050": cuda.TeslaM2050,
	}
	modes := []struct {
		name   string
		serial bool
		budget int64
	}{
		{"serial", true, 0},
		{"parallel", false, 0},
		{"sampled", true, 20000}, // small budget forces SampleStride > 1
	}
	shapes := []equivShape{
		// 32 threads force multiple tiles (and ragged tail warps) in the
		// data-parallel construction kernel on this 48-city instance.
		{"", "att48", 32, false},
		// The default 64 threads give two warps, the second with 16
		// in-range lanes: the reduction's cross-warp levels and the warps
		// that sit a level out are compared.
		{"att48@64/", "att48", 64, false},
		// kroC100 at its default 128 threads is the paper-gpu shape: four
		// warps, 4 in-range lanes in the last.
		{"kroC100@128/", "kroC100", 128, true},
	}
	for _, shape := range shapes {
		for devName, newDev := range devs {
			for _, mode := range modes {
				if shape.tourOnly && mode.name != "serial" {
					continue
				}
				t.Run(shape.name+devName+"/"+mode.name, func(t *testing.T) {
					assertVectorScalarEquiv(t, newDev, shape, mode.serial, mode.budget)
				})
			}
		}
	}
}

// assertVectorScalarEquiv runs the kernel sequence on both paths and
// compares every meter and buffer word.
func assertVectorScalarEquiv(t *testing.T, newDev func() *cuda.Device, shape equivShape, serial bool, budget int64) {
	t.Helper()
	s := runVectorEquivSequence(t, newDev(), shape, false, serial, budget)
	v := runVectorEquivSequence(t, newDev(), shape, true, serial, budget)
	if len(s.meters) != len(v.meters) {
		t.Fatalf("kernel counts differ: scalar %d, vector %d", len(s.meters), len(v.meters))
	}
	for i := range s.meters {
		if s.meters[i] != v.meters[i] {
			t.Errorf("%s: meters differ\nscalar: %+v\nvector: %+v",
				s.names[i], s.meters[i], v.meters[i])
		}
	}
	if len(s.bufs) != len(v.bufs) {
		t.Fatalf("buffer dumps differ in length: %d vs %d", len(s.bufs), len(v.bufs))
	}
	diffs := 0
	for i := range s.bufs {
		if s.bufs[i] != v.bufs[i] {
			if diffs == 0 {
				t.Errorf("buffers differ first at word %d: %#x vs %#x", i, s.bufs[i], v.bufs[i])
			}
			diffs++
		}
	}
	if diffs > 0 {
		t.Errorf("%d differing buffer words in total", diffs)
	}
}

// TestTourDataStageAllocs pins the allocation-free simulator phases and
// blocks on the paper-gpu kernel: one kroC100 data-parallel texture stage
// runs about 109k warp phases in 100 blocks, yet allocates only per launch
// (28 times).
func TestTourDataStageAllocs(t *testing.T) {
	in := tsp.MustLoadBenchmark("kroC100")
	e, err := core.NewEngine(cuda.TeslaM2050(), in, aco.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := e.ConstructTours(core.TourDataParallelTexture); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 100 {
		t.Fatalf("one stage allocates %.0f times, want fewer than 100", allocs)
	}
}
