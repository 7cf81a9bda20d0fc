package main

import (
	"fmt"
	"math"

	"antgpu/internal/tsp"
)

// instance is the checker's own copy of a TSP instance: coordinates and
// the TSPLIB distance rule, re-implemented here so that tour lengths are
// recomputed independently of the program under test.
type instance struct {
	att   bool // ATT pseudo-Euclidean; EUC_2D otherwise
	x, y  []float64
	nnLen int64 // greedy nearest-neighbour tour length from city 0
}

func newInstance(in *tsp.Instance) (*instance, error) {
	c := &instance{}
	switch in.Type {
	case tsp.Att:
		c.att = true
	case tsp.Euc2D:
	default:
		return nil, fmt.Errorf("checker: unsupported edge weight type %s", in.Type)
	}
	for _, p := range in.Coords {
		c.x = append(c.x, p.X)
		c.y = append(c.y, p.Y)
	}
	c.nnLen = c.nearestNeighbourLength()
	return c, nil
}

func (c *instance) n() int { return len(c.x) }

// dist is the TSPLIB distance between cities i and j.
func (c *instance) dist(i, j int) int64 {
	dx, dy := c.x[i]-c.x[j], c.y[i]-c.y[j]
	if !c.att {
		return int64(math.Sqrt(dx*dx+dy*dy) + 0.5)
	}
	r := math.Sqrt((dx*dx + dy*dy) / 10)
	t := int64(r + 0.5)
	if float64(t) < r {
		t++
	}
	return t
}

func (c *instance) length(tour []int32) int64 {
	var l int64
	for i := range tour {
		l += c.dist(int(tour[i]), int(tour[(i+1)%len(tour)]))
	}
	return l
}

// nearestNeighbourLength builds the greedy tour from city 0, taking the
// lowest-numbered city on ties.
func (c *instance) nearestNeighbourLength() int64 {
	n := c.n()
	seen := make([]bool, n)
	cur, l := 0, int64(0)
	seen[0] = true
	for step := 1; step < n; step++ {
		best, bd := -1, int64(0)
		for j := 0; j < n; j++ {
			if !seen[j] {
				if d := c.dist(cur, j); best < 0 || d < bd {
					best, bd = j, d
				}
			}
		}
		seen[best] = true
		l += bd
		cur = best
	}
	return l + c.dist(cur, 0)
}

// checkTour verifies that tour visits every city exactly once and that its
// recomputed length equals the reported one.
func (c *instance) checkTour(tour []int32, reported int64) error {
	n := c.n()
	if len(tour) != n {
		return fmt.Errorf("tour has %d cities, instance has %d", len(tour), n)
	}
	seen := make([]bool, n)
	for _, v := range tour {
		if v < 0 || int(v) >= n || seen[v] {
			return fmt.Errorf("tour is not a permutation: city %d out of range or repeated", v)
		}
		seen[v] = true
	}
	if l := c.length(tour); l != reported {
		return fmt.Errorf("reported best_len %d, recomputed %d", reported, l)
	}
	return nil
}
