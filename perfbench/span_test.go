package main

import (
	"math"
	"testing"
)

func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 10}
	for _, c := range []struct {
		name     string
		children []span
		want     float64
	}{
		{"no children", nil, 10},
		{"disjoint", []span{{Start: 1, End: 3}, {Start: 5, End: 6}}, 7},
		{"overlapping counted once", []span{{Start: 1, End: 4}, {Start: 3, End: 6}}, 5},
		{"nested inside a sibling", []span{{Start: 1, End: 8}, {Start: 2, End: 3}}, 3},
		{"clipped to the parent", []span{{Start: -2, End: 1}, {Start: 9, End: 12}}, 8},
		{"covering everything", []span{{Start: 0, End: 10}}, 0},
	} {
		if got := selfTime(parent, c.children); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerNestsAndFinishes(t *testing.T) {
	tr := newTracer()
	root := tr.begin("job", 3)
	a := tr.begin("a", 3)
	tr.end(a)
	b := tr.begin("b", 3)
	tr.end(b)
	tr.end(root)
	tr.finish()
	if tr.spans[a].Parent != root || tr.spans[b].Parent != root || tr.spans[root].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	want := tr.spans[root].dur() - tr.spans[a].dur() - tr.spans[b].dur()
	if got := tr.spans[root].Self; math.Abs(got-want) > 1e-9 {
		t.Errorf("root self time %v, want %v", got, want)
	}
	if tr.spans[a].Self != tr.spans[a].dur() {
		t.Errorf("a leaf's self time is its duration")
	}
}
