package main

import (
	"strings"
	"testing"

	"antgpu/internal/tsp"
)

func TestCheckerAgreesWithTheProgram(t *testing.T) {
	for _, name := range []string{"att48", "kroC100"} {
		in, err := tsp.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := newInstance(in)
		if err != nil {
			t.Fatal(err)
		}
		if want := in.TourLength(in.NearestNeighbourTour(0)); c.nnLen != want {
			t.Errorf("%s: nearest-neighbour length %d, the program's %d", name, c.nnLen, want)
		}
		for i := 0; i < in.N(); i += 7 {
			for j := 0; j < in.N(); j += 5 {
				if got, want := c.dist(i, j), int64(in.Dist(i, j)); got != want {
					t.Fatalf("%s: d(%d,%d) = %d, the program's %d", name, i, j, got, want)
				}
			}
		}
	}
}

func TestCheckTour(t *testing.T) {
	in, err := tsp.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	c, err := newInstance(in)
	if err != nil {
		t.Fatal(err)
	}
	tour := in.NearestNeighbourTour(0)
	l := c.length(tour)
	if err := c.checkTour(tour, l); err != nil {
		t.Fatalf("valid tour rejected: %v", err)
	}

	dup := append([]int32(nil), tour...)
	dup[5] = dup[6]
	if err := c.checkTour(dup, c.length(dup)); err == nil || !strings.Contains(err.Error(), "permutation") {
		t.Errorf("tour with a repeated city: %v", err)
	}
	if err := c.checkTour(tour[:len(tour)-1], l); err == nil {
		t.Error("short tour accepted")
	}
	out := append([]int32(nil), tour...)
	out[0] = int32(len(tour))
	if err := c.checkTour(out, l); err == nil {
		t.Error("tour with an out-of-range city accepted")
	}
	if err := c.checkTour(tour, l+1); err == nil || !strings.Contains(err.Error(), "recomputed") {
		t.Errorf("wrong length: %v", err)
	}
}
