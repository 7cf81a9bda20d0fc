package tsp

import (
	"errors"
	"reflect"
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

func TestComputeDerivedMatchesDirectComputation(t *testing.T) {
	in := MustLoadBenchmark("att48")
	d, err := in.ComputeDerived(30)
	if err != nil {
		t.Fatal(err)
	}
	if d.N != in.N() || d.NN != 30 {
		t.Fatalf("shape = %d x %d, want %d x 30", d.N, d.NN, in.N())
	}
	if !reflect.DeepEqual(d.List, in.NNList(30)) {
		t.Error("derived NN list differs from Instance.NNList")
	}
	if want := in.TourLength(in.NearestNeighbourTour(0)); d.CNN != want {
		t.Errorf("CNN = %d, want %d", d.CNN, want)
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
