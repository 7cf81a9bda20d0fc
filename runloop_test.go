package antgpu_test

import (
	"errors"
	"fmt"
	"testing"

	"antgpu"
)

// runLoopPairs are the 13 solvable (backend, algorithm) pairs plus AS with
// local search on each backend.
func runLoopPairs() []antgpu.SolveOptions {
	var pairs []antgpu.SolveOptions
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, a := range []antgpu.Algorithm{antgpu.AlgorithmAS, antgpu.AlgorithmACS, antgpu.AlgorithmMMAS,
			antgpu.AlgorithmEAS, antgpu.AlgorithmRank} {
			if b == antgpu.BackendTensor && (a == antgpu.AlgorithmEAS || a == antgpu.AlgorithmRank) {
				continue
			}
			pairs = append(pairs, antgpu.SolveOptions{Backend: b, Algorithm: a})
		}
		pairs = append(pairs, antgpu.SolveOptions{Backend: b, LocalSearch: true})
	}
	return pairs
}

// TestEveryPairEmitsEvents runs every pair through the one run loop and
// checks its OnIteration stream: exactly one event per iteration, numbered
// 1…N, the last carrying the returned best length. CI runs it under -race.
func TestEveryPairEmitsEvents(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	for _, opts := range runLoopPairs() {
		name := fmt.Sprintf("%v/%v", opts.Backend, opts.Algorithm)
		if opts.LocalSearch {
			name += "+ls"
		}
		t.Run(name, func(t *testing.T) {
			var events []antgpu.IterationEvent
			opts.Iterations = iters
			opts.Params = antgpu.Params{Seed: 3, Ants: 10}
			opts.ACS.Ants, opts.MMAS.Ants = 10, 10
			opts.OnIteration = func(ev antgpu.IterationEvent) { events = append(events, ev) }
			res, err := antgpu.Solve(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(events) != iters {
				t.Fatalf("%d events for %d iterations", len(events), iters)
			}
			for i, ev := range events {
				if ev.Iteration != i+1 {
					t.Errorf("event %d numbered %d", i, ev.Iteration)
				}
			}
			if last := events[iters-1].BestSoFar; last != res.BestLen {
				t.Errorf("last event best-so-far %d, result best %d", last, res.BestLen)
			}
		})
	}
}

// TestEveryPairTraces profiles every pair through the one run loop and
// checks that its trace delimits iterations alike: exactly one closed
// "iteration" span per iteration, each containing a construct and an update
// event, and a 2-opt event when the solve runs local search. An event
// belongs to the span it was recorded in: after the span opened, before the
// next iteration's span, and no later than the span's end. CI runs it
// under -race.
func TestEveryPairTraces(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	const iters = 3
	for _, opts := range runLoopPairs() {
		name := fmt.Sprintf("%v/%v", opts.Backend, opts.Algorithm)
		if opts.LocalSearch {
			name += "+ls"
		}
		t.Run(name, func(t *testing.T) {
			opts.Iterations = iters
			opts.Params = antgpu.Params{Seed: 3, Ants: 10}
			opts.ACS.Ants, opts.MMAS.Ants = 10, 10
			opts.Profile = true
			res, err := antgpu.Solve(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"construct", "update"}
			if opts.LocalSearch {
				want = append(want, "2-opt")
			}
			evs := res.Trace.Events()
			spans := 0
			for i, it := range evs {
				if it.Name != "iteration" || it.Cat != "phase" {
					continue
				}
				spans++
				if it.Dur < 0 {
					t.Errorf("iteration span %d left open", spans)
					continue
				}
				end := it.Start + it.Dur
				inside := map[string]bool{}
				for _, ev := range evs[i+1:] {
					if ev.Name == "iteration" || ev.Start > end*(1+1e-12) {
						break
					}
					inside[ev.Name] = true
				}
				for _, name := range want {
					if !inside[name] {
						t.Errorf("iteration span %d holds no %s event", spans, name)
					}
				}
			}
			if spans != iters {
				t.Errorf("%d iteration spans for %d iterations", spans, iters)
			}
		})
	}
}

// TestInvalidAlgorithmOptions: local search with a non-AS algorithm and an
// unknown algorithm fail with ErrInvalidParams on every backend instead of
// running something else.
func TestInvalidAlgorithmOptions(t *testing.T) {
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts antgpu.SolveOptions
	}{
		{"acs+ls", antgpu.SolveOptions{Algorithm: antgpu.AlgorithmACS, LocalSearch: true}},
		{"mmas+ls", antgpu.SolveOptions{Algorithm: antgpu.AlgorithmMMAS, LocalSearch: true}},
		{"eas+ls", antgpu.SolveOptions{Algorithm: antgpu.AlgorithmEAS, LocalSearch: true}},
		{"rank+ls", antgpu.SolveOptions{Algorithm: antgpu.AlgorithmRank, LocalSearch: true}},
		{"unknown", antgpu.SolveOptions{Algorithm: antgpu.Algorithm(9)}},
		{"negative", antgpu.SolveOptions{Algorithm: antgpu.Algorithm(-1)}},
	}
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%v/%s", b, c.name), func(t *testing.T) {
				opts := c.opts
				opts.Backend, opts.Iterations = b, 1
				_, err := antgpu.Solve(in, opts)
				if !errors.Is(err, antgpu.ErrInvalidParams) {
					t.Fatalf("got %v, want ErrInvalidParams", err)
				}
			})
		}
	}
}
