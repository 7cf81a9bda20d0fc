package tsp_test

import (
	"bytes"
	"strings"
	"testing"

	"antgpu/internal/tsp"
)

func TestParseTour(t *testing.T) {
	src := `NAME : demo.opt.tour
TYPE : TOUR
DIMENSION : 4
TOUR_SECTION
1
3
2
4
-1
EOF
`
	tour, err := tsp.ParseTour(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{0, 2, 1, 3}
	if len(tour) != len(want) {
		t.Fatalf("tour = %v", tour)
	}
	for i := range want {
		if tour[i] != want[i] {
			t.Fatalf("tour = %v, want %v", tour, want)
		}
	}
}

func TestParseTourMultipleEntriesPerLine(t *testing.T) {
	src := "DIMENSION: 5\nTOUR_SECTION\n1 2 3\n4 5 -1\nEOF\n"
	tour, err := tsp.ParseTour(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(tour) != 5 || tour[4] != 4 {
		t.Fatalf("tour = %v", tour)
	}
}

func TestParseTourErrors(t *testing.T) {
	cases := map[string]string{
		"empty section":   "TOUR_SECTION\n-1\nEOF\n",
		"wrong dimension": "DIMENSION: 3\nTOUR_SECTION\n1 2\n-1\nEOF\n",
		"bad entry":       "TOUR_SECTION\n1 x\n-1\nEOF\n",
		"zero entry":      "TOUR_SECTION\n0 1\n-1\nEOF\n",
		"wrong type":      "TYPE: TSP\nTOUR_SECTION\n1\n-1\nEOF\n",
	}
	for name, src := range cases {
		if _, err := tsp.ParseTour(strings.NewReader(src)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteParseTourRoundTrip(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	orig := in.NearestNeighbourTour(5)
	var buf bytes.Buffer
	if err := tsp.WriteTour(&buf, "att48.nn.tour", orig); err != nil {
		t.Fatal(err)
	}
	back, err := tsp.ParseTour(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(orig) {
		t.Fatalf("roundtrip length %d -> %d", len(orig), len(back))
	}
	for i := range orig {
		if back[i] != orig[i] {
			t.Fatalf("roundtrip differs at %d", i)
		}
	}
	if err := in.ValidTour(back); err != nil {
		t.Fatal(err)
	}
}
