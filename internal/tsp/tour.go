package tsp

import (
	"bufio"
	"fmt"
	"io"
)

// WriteTour emits a tour in TSPLIB TOUR format (1-based city numbers,
// -1 terminator).
func WriteTour(w io.Writer, name string, tour []int32) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "NAME : %s\n", name)
	fmt.Fprintf(bw, "TYPE : TOUR\n")
	fmt.Fprintf(bw, "DIMENSION : %d\n", len(tour))
	fmt.Fprintf(bw, "TOUR_SECTION\n")
	for _, c := range tour {
		fmt.Fprintf(bw, "%d\n", c+1)
	}
	fmt.Fprintln(bw, "-1")
	fmt.Fprintln(bw, "EOF")
	return bw.Flush()
}
