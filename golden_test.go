package antgpu_test

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
)

// goldenPath is the committed result table TestGolden checks against.
const goldenPath = "testdata/golden.txt"

// goldenIterations is the iteration budget of every golden cell.
const goldenIterations = 4

// goldenCell is one solve of the golden sweep.
type goldenCell struct {
	instance string
	seed     uint64
	backend  antgpu.Backend
	alg      antgpu.Algorithm
	ls       bool
	variant  aco.Variant
}

// key is the cell's identity: the first five fields of its table line.
func (c goldenCell) key() string {
	alg := c.alg.String()
	if c.ls {
		alg += "+ls"
	}
	return fmt.Sprintf("%s %d %s %s %s", c.instance, c.seed, c.backend, alg, c.variant)
}

// goldenCells lists the sweep: att48 and kroC100, seeds 1–3, every
// solvable (backend, algorithm) pair plus AS with local search on each
// backend, and both construction variants on the cpu and tensor backends
// (the gpu backend has no Variant).
func goldenCells() []goldenCell {
	type pair struct {
		b  antgpu.Backend
		a  antgpu.Algorithm
		ls bool
	}
	var pairs []pair
	for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
		for _, a := range []antgpu.Algorithm{antgpu.AlgorithmAS, antgpu.AlgorithmACS, antgpu.AlgorithmMMAS,
			antgpu.AlgorithmEAS, antgpu.AlgorithmRank} {
			if b == antgpu.BackendTensor && (a == antgpu.AlgorithmEAS || a == antgpu.AlgorithmRank) {
				continue
			}
			pairs = append(pairs, pair{b, a, false})
		}
		pairs = append(pairs, pair{b, antgpu.AlgorithmAS, true})
	}
	var cells []goldenCell
	for _, name := range []string{"att48", "kroC100"} {
		for seed := uint64(1); seed <= 3; seed++ {
			for _, p := range pairs {
				variants := []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction}
				if p.b == antgpu.BackendGPU {
					variants = variants[:1]
				}
				for _, v := range variants {
					cells = append(cells, goldenCell{name, seed, p.b, p.a, p.ls, v})
				}
			}
		}
	}
	return cells
}

// goldenLine solves one cell and renders its table line: the cell key,
// the best length, an FNV-64a hash of the best tour, the bits of
// SimulatedSeconds (cpu and gpu only; the tensor backend reports
// wall-clock time) and an FNV-64a hash of the OnIteration stream ("-" when
// the solve emitted no events).
func goldenLine(in *antgpu.Instance, c goldenCell) (string, error) {
	events := fnv.New64a()
	emitted := 0
	res, err := antgpu.Solve(in, antgpu.SolveOptions{
		Algorithm:   c.alg,
		Backend:     c.backend,
		Iterations:  goldenIterations,
		Params:      antgpu.Params{Seed: c.seed},
		Variant:     c.variant,
		LocalSearch: c.ls,
		OnIteration: func(ev antgpu.IterationEvent) {
			emitted++
			fmt.Fprintf(events, "%d %x %x %d %x %x %x\n", ev.Iteration,
				math.Float64bits(ev.Best), math.Float64bits(ev.Mean), ev.BestSoFar,
				math.Float64bits(ev.Gap), math.Float64bits(ev.Entropy), math.Float64bits(ev.Lambda))
		},
	})
	if err != nil {
		return "", err
	}
	tour := fnv.New64a()
	if err := binary.Write(tour, binary.LittleEndian, res.BestTour); err != nil {
		return "", err
	}
	secs := "-"
	if c.backend != antgpu.BackendTensor {
		secs = fmt.Sprintf("%016x", math.Float64bits(res.SimulatedSeconds))
	}
	ev := "-"
	if emitted > 0 {
		ev = fmt.Sprintf("%016x", events.Sum64())
	}
	return fmt.Sprintf("%s %d %016x %s %s", c.key(), res.BestLen, tour.Sum64(), secs, ev), nil
}

// readGolden loads the committed table, keyed by cell.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 9 {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[strings.Join(fields[:5], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGolden solves every cell of the golden sweep through the public
// facade and compares best length, tour hash, simulated seconds and the
// OnIteration stream with the committed table, so a refactor of the
// engines or the run loop that changes any result shows up cell by cell.
// An event hash of "-" in the table leaves that cell's stream unpinned.
// A cell missing from the table fails with its computed line, which is
// how new cells are added. The table is pinned on amd64: other Go ports
// may fuse multiply-adds and round differently.
func TestGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden table is pinned on amd64; other ports may fuse multiply-adds")
	}
	want := readGolden(t)
	cells := goldenCells()
	if len(want) != len(cells) {
		t.Errorf("%s has %d cells, the sweep has %d", goldenPath, len(want), len(cells))
	}
	instances := map[string]*antgpu.Instance{}
	for _, name := range []string{"att48", "kroC100"} {
		in, err := antgpu.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		instances[name] = in
	}
	for _, c := range cells {
		c := c
		t.Run(strings.ReplaceAll(c.key(), " ", "/"), func(t *testing.T) {
			t.Parallel()
			got, err := goldenLine(instances[c.instance], c)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[c.key()]
			if !ok {
				t.Fatalf("no golden line; computed:\n%s", got)
			}
			gf, wf := strings.Fields(got), strings.Fields(w)
			if wf[8] == "-" {
				gf[8] = "-"
			}
			if strings.Join(gf, " ") != strings.Join(wf, " ") {
				t.Errorf("result changed\n got: %s\nwant: %s", got, w)
			}
		})
	}
}
