package tsp

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
)

// straddleInstance builds a synthetic explicit instance whose distances
// straddle the float32 exact-integer limit: maxD on edge (0,2), with the
// remaining edges just below the limit.
func straddleInstance(t *testing.T, maxD int32) *Instance {
	t.Helper()
	const safe = MaxExactDistF32 - 1
	in, err := NewExplicit("straddle", 3, []int32{
		0, safe, maxD,
		safe, 0, MaxExactDistF32,
		maxD, MaxExactDistF32, 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestComputeDerivedDetectsF32Overflow: int32 distances above 2^24 do not
// convert to float32 exactly — distinct edges collapse onto one value — so
// the float32 conversion must refuse them with ErrF32Precision instead of
// silently building a lossy matrix. ComputeDerived makes no float32 copy,
// so it accepts the instance; the refusal lives in ConvertDistF32, which
// the GPU engine calls, and CheckDistF32, which the island runtime calls.
func TestComputeDerivedDetectsF32Overflow(t *testing.T) {
	// The defect being guarded against: 2^24+1 and 2^24 are different int32
	// distances but the same float32.
	if float32(MaxExactDistF32+1) != float32(MaxExactDistF32) {
		t.Fatal("float32 conversion sanity check failed")
	}

	in := straddleInstance(t, MaxExactDistF32+1)
	if _, err := in.ComputeDerived(2); err != nil {
		t.Fatalf("ComputeDerived refused an instance it reads no float32 of: %v", err)
	}
	if err := in.CheckDistF32(); !errors.Is(err, ErrF32Precision) {
		t.Fatalf("CheckDistF32 = %v, want ErrF32Precision", err)
	}
	if err := in.ConvertDistF32(make([]float32, 9)); !errors.Is(err, ErrF32Precision) {
		t.Fatalf("ConvertDistF32 = %v, want ErrF32Precision", err)
	}

	// Distances up to and including 2^24 are exact and must keep working.
	ok := straddleInstance(t, MaxExactDistF32)
	if err := ok.CheckDistF32(); err != nil {
		t.Fatalf("CheckDistF32 rejected exactly representable distances: %v", err)
	}
	n := ok.N()
	dst := make([]float32, n*n)
	if err := ok.ConvertDistF32(dst); err != nil {
		t.Fatalf("ConvertDistF32 rejected exactly representable distances: %v", err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := int64(dst[i*n+j]), ok.Dist(i, j); got != int64(want) {
				t.Fatalf("float32 d(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

// referenceGreedyTour is the visited-flag scan the greedy tour is checked
// against: every step tests all n cities and keeps the first strictly
// closest unvisited one.
func referenceGreedyTour(in *Instance, start int) []int32 {
	n := in.n
	tour := make([]int32, 0, n)
	visited := make([]bool, n)
	cur := start
	tour = append(tour, int32(cur))
	visited[cur] = true
	for len(tour) < n {
		best := -1
		var bestD int32
		row := in.matrix[cur*n:]
		for j := 0; j < n; j++ {
			if visited[j] {
				continue
			}
			if best < 0 || row[j] < bestD {
				best, bestD = j, row[j]
			}
		}
		cur = best
		visited[cur] = true
		tour = append(tour, int32(cur))
	}
	return tour
}

// TestComputeDerivedMatchesDirectComputation: on every embedded benchmark,
// ComputeDerived holds NNList's lists and the reference greedy tour's
// length, and Derive without lists holds the same C^nn and no lists.
func TestComputeDerivedMatchesDirectComputation(t *testing.T) {
	for _, name := range PaperBenchmarks {
		in := MustLoadBenchmark(name)
		d, err := in.ComputeDerived(30)
		if err != nil {
			t.Fatal(err)
		}
		if d.N != in.N() || d.NN != 30 {
			t.Fatalf("%s: shape = %d x %d, want %d x 30", name, d.N, d.NN, in.N())
		}
		if !reflect.DeepEqual(d.List, in.NNList(30)) {
			t.Errorf("%s: derived NN list differs from Instance.NNList", name)
		}
		if want := in.TourLength(referenceGreedyTour(in, 0)); d.CNN != want {
			t.Errorf("%s: CNN = %d, want %d", name, d.CNN, want)
		}
		if bare := in.Derive(30, false); bare.List != nil || bare.CNN != d.CNN || bare.N != d.N || bare.NN != d.NN {
			t.Errorf("%s: Derive without lists = %+v, want C^nn %d and no lists", name, bare, d.CNN)
		}
		if withLists := in.Derive(30, false).WithLists(in); !reflect.DeepEqual(withLists, d) {
			t.Errorf("%s: WithLists differs from ComputeDerived", name)
		}
	}
}

// TestGreedyTourMatchesVisitedScan: the greedy tour, scanning the
// unvisited cities or walking the NN lists (widths 1 and 5 exhaust often
// and fall back to the scan), is the reference visited-flag scan's tour
// from the first, second and last city — on uniform, clustered and
// tie-heavy instances (a 20-unit square puts 400 cities on few distances).
func TestGreedyTourMatchesVisitedScan(t *testing.T) {
	instances := []*Instance{
		MustLoadBenchmark("att48"), MustLoadBenchmark("kroC100"), MustLoadBenchmark("a280"),
		MustLoadBenchmark("pcb442"), MustLoadBenchmark("pr1002"),
	}
	for _, spec := range []GenSpec{
		{Name: "clustered", N: 300, Type: Euc2D, Seed: 3, Width: 5000, Clusters: 7},
		{Name: "ties", N: 400, Type: Euc2D, Seed: 4, Width: 20},
		{Name: "ties-clustered", N: 250, Type: Att, Seed: 5, Width: 40, Clusters: 3},
	} {
		in, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	for _, in := range instances {
		n := in.N()
		lists := map[int][]int32{}
		for _, nn := range []int{1, 5, 30} {
			lists[nn] = in.NNList(nn)
		}
		for _, start := range []int{0, 1, n - 1} {
			want := referenceGreedyTour(in, start)
			if got := in.NearestNeighbourTour(start); !slices.Equal(got, want) {
				t.Errorf("%s from %d: scan differs from the visited-flag reference", in.Name, start)
			}
			for nn, list := range lists {
				if got := in.greedyTour(start, list, nn); !slices.Equal(got, want) {
					t.Errorf("%s from %d: walk along the nn=%d lists differs from the visited-flag reference",
						in.Name, start, nn)
				}
			}
		}
	}
}

func TestEffectiveNNClamps(t *testing.T) {
	in := MustLoadBenchmark("att48")
	n := in.N()
	if got := in.EffectiveNN(n + 10); got != n-1 {
		t.Errorf("EffectiveNN(%d) = %d, want %d", n+10, got, n-1)
	}
	if got := in.EffectiveNN(5); got != 5 {
		t.Errorf("EffectiveNN(5) = %d", got)
	}
	d, err := in.ComputeDerived(n * 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.NN != n-1 {
		t.Errorf("ComputeDerived clamped to %d, want %d", d.NN, n-1)
	}
}

func TestContentHashIdentifiesContent(t *testing.T) {
	a := MustLoadBenchmark("att48")
	b := MustLoadBenchmark("att48")
	if a.ContentHash() != b.ContentHash() {
		t.Error("two loads of one benchmark hash differently")
	}
	c := MustLoadBenchmark("kroC100")
	if a.ContentHash() == c.ContentHash() {
		t.Error("att48 and kroC100 share a content hash")
	}
	// Determinism across calls.
	if a.ContentHash() != a.ContentHash() {
		t.Error("ContentHash is not deterministic")
	}

	// NewExplicit hashes in its own build loop: equal matrices hash
	// equally, one changed distance or the edge weight type changes it.
	n := a.N()
	m := append([]int32(nil), a.Matrix()...)
	e1, err := NewExplicit("e1", n, m)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExplicit("e2", n, m)
	if err != nil {
		t.Fatal(err)
	}
	if e1.ContentHash() != e2.ContentHash() {
		t.Error("two explicit instances with one matrix hash differently")
	}
	if e1.ContentHash() == a.ContentHash() {
		t.Error("the edge weight type does not enter the content hash")
	}
	m[n-2]++ // d(0, n-2), in the upper triangle
	e3, err := NewExplicit("e3", n, m)
	if err != nil {
		t.Fatal(err)
	}
	if e3.ContentHash() == e1.ContentHash() {
		t.Error("changing one distance left the content hash unchanged")
	}
}

func TestContentHashIgnoresName(t *testing.T) {
	a := MustLoadBenchmark("att48")
	b := MustLoadBenchmark("att48")
	b.Name = "renamed"
	b.Comment = "different comment"
	if a.ContentHash() != b.ContentHash() {
		t.Error("renaming an instance changed its content hash")
	}
}

var derivedSink *Derived

// BenchmarkComputeDerived times a derived-data cache miss of the
// upload-distinct workload: the NN lists and C^nn of a 500-city upload at
// the default list width.
func BenchmarkComputeDerived(b *testing.B) {
	in, err := Generate(GenSpec{Name: "upload", N: 500, Type: Euc2D, Seed: 1, Width: 10000})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		derivedSink, err = in.ComputeDerived(30)
		if err != nil {
			b.Fatal(err)
		}
	}
}

var tourSink []int32

// BenchmarkNearestNeighbourTour times the greedy tour behind C^nn at an
// upload-sized n = 500 and at pr1002: the scan a derivation without lists
// runs, and the walk along the width-30 NN lists one with lists runs.
func BenchmarkNearestNeighbourTour(b *testing.B) {
	upload, err := Generate(GenSpec{Name: "upload", N: 500, Type: Euc2D, Seed: 1, Width: 10000})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []*Instance{upload, MustLoadBenchmark("pr1002")} {
		list := in.NNList(30)
		b.Run(fmt.Sprintf("n=%d/scan", in.N()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tourSink = in.NearestNeighbourTour(0)
			}
		})
		b.Run(fmt.Sprintf("n=%d/lists", in.N()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				tourSink = in.greedyTour(0, list, 30)
			}
		})
	}
}
