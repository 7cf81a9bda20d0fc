package tsp_test

import (
	"bytes"
	"testing"

	"antgpu/internal/tsp"
)

// TestWriteTour pins the TSPLIB TOUR bytes that acotsp writes: 1-based
// city numbers, one per line, then the -1 terminator and EOF.
func TestWriteTour(t *testing.T) {
	var buf bytes.Buffer
	if err := tsp.WriteTour(&buf, "demo.tour", []int32{0, 2, 1, 3}); err != nil {
		t.Fatal(err)
	}
	const want = "NAME : demo.tour\nTYPE : TOUR\nDIMENSION : 4\nTOUR_SECTION\n1\n3\n2\n4\n-1\nEOF\n"
	if got := buf.String(); got != want {
		t.Errorf("WriteTour wrote\n%q\nwant\n%q", got, want)
	}
}
