package tsp

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseTour reads a TSPLIB TOUR file (the .tour / .opt.tour format): a
// specification part, a TOUR_SECTION of 1-based city numbers, terminated
// by -1. City numbers are converted to this package's 0-based indices.
func ParseTour(r io.Reader) ([]int32, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var tour []int32
	dim := 0
	inSection := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		upper := strings.ToUpper(line)
		if upper == "EOF" {
			break
		}
		if inSection {
			terminated := false
			for _, tok := range strings.Fields(line) {
				v, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("tsp: bad tour entry %q", tok)
				}
				if v == -1 {
					terminated = true
					break
				}
				if v < 1 {
					return nil, fmt.Errorf("tsp: tour entry %d out of range (1-based)", v)
				}
				tour = append(tour, int32(v-1))
			}
			if terminated {
				inSection = false
			}
			continue
		}
		key, val := splitSpec(line)
		switch key {
		case "DIMENSION":
			d, err := strconv.Atoi(val)
			if err != nil || d < 1 {
				return nil, fmt.Errorf("tsp: bad DIMENSION %q", val)
			}
			dim = d
		case "TYPE":
			if v := strings.ToUpper(val); v != "TOUR" && v != "" {
				return nil, fmt.Errorf("tsp: not a TOUR file (TYPE %q)", val)
			}
		case "TOUR_SECTION":
			inSection = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tsp: read: %w", err)
	}
	if len(tour) == 0 {
		return nil, fmt.Errorf("tsp: no TOUR_SECTION entries")
	}
	if dim != 0 && len(tour) != dim {
		return nil, fmt.Errorf("tsp: tour has %d cities, DIMENSION says %d", len(tour), dim)
	}
	return tour, nil
}

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
