package tsp_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

// referenceNNList is the definition NNList implements: every row's other
// cities fully sorted by (distance, index), truncated to the first nn.
func referenceNNList(in *tsp.Instance, nn int) []int32 {
	n := in.N()
	if nn > n-1 {
		nn = n - 1
	}
	list := make([]int32, n*nn)
	idx := make([]int32, n-1)
	for i := 0; i < n; i++ {
		k := 0
		for j := 0; j < n; j++ {
			if j != i {
				idx[k] = int32(j)
				k++
			}
		}
		row := in.Matrix()[i*n:]
		sort.Slice(idx, func(a, b int) bool {
			da, db := row[idx[a]], row[idx[b]]
			if da != db {
				return da < db
			}
			return idx[a] < idx[b]
		})
		copy(list[i*nn:(i+1)*nn], idx[:nn])
	}
	return list
}

// randomExplicit builds an EXPLICIT instance whose upper-triangle
// distances are uniform in [0, mod).
func randomExplicit(t testing.TB, name string, n, mod int, seed uint64) *tsp.Instance {
	t.Helper()
	g := rng.Seed(seed, 7)
	m := make([]int32, n*n)
	for i := range m {
		m[i] = int32(g.Intn(mod))
	}
	in, err := tsp.NewExplicit(name, n, m)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func generate(t testing.TB, spec tsp.GenSpec) *tsp.Instance {
	t.Helper()
	in, err := tsp.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestNNListMatchesSortReference: the bounded selection must produce the
// sorted lists exactly, including the index tie-break, at every width up
// to and beyond the n−1 clamp.
func TestNNListMatchesSortReference(t *testing.T) {
	instances := []*tsp.Instance{
		tsp.MustLoadBenchmark("kroC100"), // EUC_2D
		generate(t, tsp.GenSpec{Name: "euc-clustered", N: 257, Type: tsp.Euc2D, Seed: 5, Width: 300, Clusters: 6}),
		tsp.MustLoadBenchmark("att48"), // ATT
		generate(t, tsp.GenSpec{Name: "geo", N: 120, Type: tsp.Geo, Seed: 9, Width: 60}),
		randomExplicit(t, "explicit", 90, 1000, 1),
		randomExplicit(t, "explicit-ties", 131, 3, 2), // distances 0..2: most keys tie on distance
		randomExplicit(t, "explicit-n3", 3, 5, 3),
		generate(t, tsp.GenSpec{Name: "euc-n3", N: 3, Type: tsp.Euc2D, Seed: 4}),
	}
	for _, in := range instances {
		n := in.N()
		for _, nn := range []int{0, 1, 30, n - 2, n - 1, n + 5} {
			got, want := in.NNList(nn), referenceNNList(in, nn)
			if !slices.Equal(got, want) {
				t.Errorf("%s (n=%d) nn=%d: NNList differs from the sorted reference", in.Name, n, nn)
			}
		}
	}
}

var nnSink []int32

// BenchmarkNNList times the nearest-neighbour lists of the derived data at
// an upload-sized n = 500 and at pr1002, with the default width 30 and, for
// pr1002, the widest width the service accepts (n−1, the worst case).
func BenchmarkNNList(b *testing.B) {
	upload := generate(b, tsp.GenSpec{Name: "upload", N: 500, Type: tsp.Euc2D, Seed: 1, Width: 10000})
	pr1002 := tsp.MustLoadBenchmark("pr1002")
	for _, c := range []struct {
		in *tsp.Instance
		nn int
	}{{upload, 30}, {pr1002, 30}, {pr1002, pr1002.N() - 1}} {
		b.Run(fmt.Sprintf("n=%d/nn=%d", c.in.N(), c.nn), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				nnSink = c.in.NNList(c.nn)
			}
		})
	}
}
