package antgpu_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"antgpu"
	"antgpu/internal/aco"
)

// goldenPath is the committed result table TestGolden, TestGoldenFaults
// and TestGoldenIslands check against.
const goldenPath = "testdata/golden.txt"

// goldenIterations is the iteration budget of every golden cell.
const goldenIterations = 4

// goldenScheduleIterations and goldenSchedule set the MMAS-schedule cells
// of TestGoldenMMASSchedule: twelve iterations under a schedule that
// deposits the best-so-far tour every second iteration and re-initialises
// the trails after three without improvement. Twelve is the fewest that
// reset the trails in every cell (att48 seed 3 with the NN-list rule first
// resets at iteration 12). The main sweep's MMAS cells run 4 iterations
// under the default 25 and 250, so they reach neither branch.
const goldenScheduleIterations = 12

var goldenSchedule = antgpu.MMASParams{BestEvery: 2, StagnationReset: 3}

// goldenCell is one solve of the golden sweep.
type goldenCell struct {
	instance string
	seed     uint64
	backend  antgpu.Backend
	alg      antgpu.Algorithm
	ls       bool
	variant  aco.Variant
	schedule bool // MMAS under goldenSchedule (TestGoldenMMASSchedule)
}

// key is the cell's identity: the first five fields of its table line,
// after the kind "schedule" for an MMAS-schedule cell.
func (c goldenCell) key() string {
	alg := c.alg.String()
	if c.ls {
		alg += "+ls"
	}
	key := fmt.Sprintf("%s %d %s %s %s", c.instance, c.seed, c.backend, alg, c.variant)
	if c.schedule {
		key = "schedule " + key
	}
	return key
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
					cells = append(cells, goldenCell{name, seed, p.b, p.a, p.ls, v, false})
				}
			}
		}
	}
	return cells
}

// eventHash is an FNV-64a hash of an OnIteration stream.
type eventHash struct {
	h       hash.Hash64
	emitted int
}

func newEventHash() *eventHash { return &eventHash{h: fnv.New64a()} }

func (e *eventHash) observe(ev antgpu.IterationEvent) {
	e.emitted++
	fmt.Fprintf(e.h, "%d %x %x %d %x %x %x\n", ev.Iteration,
		math.Float64bits(ev.Best), math.Float64bits(ev.Mean), ev.BestSoFar,
		math.Float64bits(ev.Gap), math.Float64bits(ev.Entropy), math.Float64bits(ev.Lambda))
}

// String renders the hash, or "-" when the solve emitted no events.
func (e *eventHash) String() string {
	if e.emitted == 0 {
		return "-"
	}
	return fmt.Sprintf("%016x", e.h.Sum64())
}

// tourHash is an FNV-64a hash of a tour.
func tourHash(tour []int32) uint64 {
	h := fnv.New64a()
	_ = binary.Write(h, binary.LittleEndian, tour) // a hash never fails a write
	return h.Sum64()
}

// goldenLine solves one cell and renders its table line: the cell key,
// the best length, an FNV-64a hash of the best tour, the bits of
// SimulatedSeconds (cpu and gpu only; the tensor backend reports
// wall-clock time) and an FNV-64a hash of the OnIteration stream ("-" when
// the solve emitted no events).
func goldenLine(in *antgpu.Instance, c goldenCell) (string, error) {
	events := newEventHash()
	opts := antgpu.SolveOptions{
		Algorithm:   c.alg,
		Backend:     c.backend,
		Iterations:  goldenIterations,
		Params:      antgpu.Params{Seed: c.seed},
		Variant:     c.variant,
		LocalSearch: c.ls,
		OnIteration: events.observe,
	}
	if c.schedule {
		opts.Iterations = goldenScheduleIterations
		opts.MMAS = goldenSchedule
	}
	res, err := antgpu.Solve(in, opts)
	if err != nil {
		return "", err
	}
	secs := "-"
	if c.backend != antgpu.BackendTensor {
		secs = fmt.Sprintf("%016x", math.Float64bits(res.SimulatedSeconds))
	}
	return fmt.Sprintf("%s %d %016x %s %s", c.key(), res.BestLen, tourHash(res.BestTour), secs, events), nil
}

// goldenKinds are the first fields that mark a table row as belonging to
// TestGoldenMMASSchedule, TestGoldenFaults, TestGoldenIslands or
// TestGoldenTraces rather than to the main sweep.
var goldenKinds = map[string]bool{"schedule": true, "fault": true, "islands": true, "trace": true}

// readGolden loads the committed table rows of one kind, keyed by their
// first keyLen fields: the sweep's cells for kind "", or the rows whose
// first field is kind (one of goldenKinds).
func readGolden(t *testing.T, kind string, keyLen int) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if first := fields[0]; first != kind && (kind != "" || goldenKinds[first]) {
			continue
		}
		if kind == "" && len(fields) != 9 || len(fields) <= keyLen {
			t.Fatalf("%s: malformed line %q", goldenPath, line)
		}
		want[strings.Join(fields[:keyLen], " ")] = line
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
	want := readGolden(t, "", 5)
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

// goldenScheduleCells lists the MMAS-schedule sweep: att48, seeds 1–3, MMAS
// on the cpu and tensor backends with both construction rules and on the
// gpu backend.
func goldenScheduleCells() []goldenCell {
	var cells []goldenCell
	for seed := uint64(1); seed <= 3; seed++ {
		for _, b := range []antgpu.Backend{antgpu.BackendCPU, antgpu.BackendGPU, antgpu.BackendTensor} {
			variants := []aco.Variant{aco.FullProbabilistic, aco.NNListConstruction}
			if b == antgpu.BackendGPU {
				variants = variants[:1]
			}
			for _, v := range variants {
				cells = append(cells, goldenCell{"att48", seed, b, antgpu.AlgorithmMMAS, false, v, true})
			}
		}
	}
	return cells
}

// TestGoldenMMASSchedule pins MMAS on every backend through the two
// branches of its schedule: the best-so-far tour depositing in place of the
// iteration-best, and the trails re-initialised to τmax after stagnating.
// Each line has the fields of a main-sweep line after the kind "schedule",
// and the OnIteration stream is pinned in every cell.
func TestGoldenMMASSchedule(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden table is pinned on amd64; other ports may fuse multiply-adds")
	}
	want := readGolden(t, "schedule", 6)
	cells := goldenScheduleCells()
	if len(want) != len(cells) {
		t.Errorf("%s has %d schedule cells, the sweep has %d", goldenPath, len(want), len(cells))
	}
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		c := c
		t.Run(strings.ReplaceAll(c.key(), " ", "/"), func(t *testing.T) {
			t.Parallel()
			got, err := goldenLine(in, c)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenLine(t, want, 6, got)
		})
	}
}

// goldenFaultIterations is the iteration budget of every fault cell.
const goldenFaultIterations = 6

// goldenFaultCell is one fault-tolerant gpu AS solve (seed 1, default
// kernels): a fault plan, the recovery options it runs under, and a check
// that the solve still takes the recovery path the cell is named for.
type goldenFaultCell struct {
	name     string
	faults   *antgpu.FaultPlan
	recovery *antgpu.RecoveryOptions
	path     func(*antgpu.RecoveryReport, error) bool
}

func goldenFaultCells() []goldenFaultCell {
	recovered := func(r *antgpu.RecoveryReport, err error) bool { return err == nil && !r.Degraded }
	return []goldenFaultCell{
		{"no-faults", nil, &antgpu.RecoveryOptions{},
			func(r *antgpu.RecoveryReport, err error) bool { return recovered(r, err) && r.Faults == 0 }},
		{"launch-retry", &antgpu.FaultPlan{Seed: 27, LaunchRate: 0.05}, nil,
			func(r *antgpu.RecoveryReport, err error) bool {
				return recovered(r, err) && r.Retries > 0 && r.Resets == 0
			}},
		{"ecc-reset", &antgpu.FaultPlan{Seed: 18, ECCRate: 0.03}, nil,
			func(r *antgpu.RecoveryReport, err error) bool { return recovered(r, err) && r.Resets > 0 }},
		{"oom-rebuild", &antgpu.FaultPlan{Seed: 11, OOMRate: 0.02}, nil,
			func(r *antgpu.RecoveryReport, err error) bool { return recovered(r, err) && r.Retries > 0 }},
		{"sticky-reset", &antgpu.FaultPlan{Seed: 20, LaunchRate: 0.04, StickyRate: 0.5}, nil,
			func(r *antgpu.RecoveryReport, err error) bool { return recovered(r, err) && r.Resets > 0 }},
		{"die-failover", &antgpu.FaultPlan{DieAtLaunch: 12}, &antgpu.RecoveryOptions{MaxConsecutiveFaults: 2},
			func(r *antgpu.RecoveryReport, err error) bool {
				return err == nil && r.Degraded && r.FailoverIteration > 0 && r.FailoverIteration < goldenFaultIterations
			}},
		{"rate1-failover", &antgpu.FaultPlan{Seed: 3, LaunchRate: 1}, nil,
			func(r *antgpu.RecoveryReport, err error) bool {
				return err == nil && r.Degraded && r.FailoverIteration == 0
			}},
		{"no-failover", &antgpu.FaultPlan{Seed: 3, LaunchRate: 1},
			&antgpu.RecoveryOptions{MaxConsecutiveFaults: 2, DisableFailover: true},
			func(_ *antgpu.RecoveryReport, err error) bool { return errors.Is(err, antgpu.ErrLaunchFailed) }},
	}
}

// goldenFaultLine solves one fault cell and renders its table line: the
// key ("fault", instance, cell), then the best length, the tour hash, the
// bits of SimulatedSeconds, the OnIteration hash and the RecoveryReport as
// JSON — or, for a failed solve, "-" for the first three and the error
// text in place of the report.
func goldenFaultLine(in *antgpu.Instance, c goldenFaultCell) (string, *antgpu.RecoveryReport, error) {
	events := newEventHash()
	res, err := antgpu.Solve(in, antgpu.SolveOptions{
		Backend:     antgpu.BackendGPU,
		Iterations:  goldenFaultIterations,
		Params:      antgpu.Params{Seed: 1},
		Faults:      c.faults,
		Recovery:    c.recovery,
		OnIteration: events.observe,
	})
	key := fmt.Sprintf("fault %s %s", in.Name, c.name)
	if err != nil {
		return fmt.Sprintf("%s - - - %s error: %v", key, events, err), nil, err
	}
	rep, jerr := json.Marshal(res.Recovery)
	if jerr != nil {
		return "", nil, jerr
	}
	return fmt.Sprintf("%s %d %016x %016x %s %s", key, res.BestLen, tourHash(res.BestTour),
		math.Float64bits(res.SimulatedSeconds), events, rep), res.Recovery, nil
}

// TestGoldenFaults pins the fault-tolerant gpu AS runtime on att48 and
// kroC100: retry in place, a rebuild after an allocation failure, reset
// and replay after ECC and sticky faults,
// CPU failover mid-run and at iteration 0, the runtime with no faults, and
// the error of a solve whose failover is disabled. Each cell also checks
// that it still takes its recovery path, so a fault-plan change that makes
// a cell vacuous fails here rather than passing silently.
func TestGoldenFaults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden table is pinned on amd64; other ports may fuse multiply-adds")
	}
	want := readGolden(t, "fault", 3)
	cells := goldenFaultCells()
	if len(want) != 2*len(cells) {
		t.Errorf("%s has %d fault cells, the sweep has %d", goldenPath, len(want), 2*len(cells))
	}
	for _, name := range []string{"att48", "kroC100"} {
		in, err := antgpu.LoadBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			c := c
			t.Run(name+"/"+c.name, func(t *testing.T) {
				t.Parallel()
				got, rep, err := goldenFaultLine(in, c)
				if got == "" {
					t.Fatal(err)
				}
				if !c.path(rep, err) {
					t.Errorf("cell no longer takes its recovery path: %s", got)
				}
				checkGoldenLine(t, want, 3, got)
			})
		}
	}
}

// goldenIslandCell is one SolveIslands run on att48 (4 islands, 12
// iterations, migration every 3, stagnation restarts after 4, seed 1): the
// cell's fault options and a check that the run still takes the path the
// cell is named for.
type goldenIslandCell struct {
	name string
	opts antgpu.IslandOptions
	path func(*antgpu.IslandsResult, error) bool
}

func goldenIslandCells() []goldenIslandCell {
	faults := func(r *antgpu.IslandsResult) (n int) {
		for _, s := range r.Report.Islands {
			n += s.Faults
		}
		return n
	}
	return []goldenIslandCell{
		{"clean", antgpu.IslandOptions{}, func(r *antgpu.IslandsResult, err error) bool {
			return err == nil && faults(r) == 0 && r.Report.ActiveIslands == 4
		}},
		{"transient", antgpu.IslandOptions{Faults: &antgpu.FaultPlan{Seed: 20, LaunchRate: 0.02, ECCRate: 0.01}},
			func(r *antgpu.IslandsResult, err error) bool {
				return err == nil && faults(r) > 0 && r.Report.Quarantined() == 0
			}},
		{"quarantine", antgpu.IslandOptions{IslandFaults: []*antgpu.FaultPlan{nil, nil, {DieAtLaunch: 30}}},
			func(r *antgpu.IslandsResult, err error) bool {
				return err == nil && r.Report.Islands[2].Quarantined && r.Report.ActiveIslands == 3
			}},
		{"respawn", antgpu.IslandOptions{
			IslandFaults: []*antgpu.FaultPlan{nil, {DieAtLaunch: 20}, nil, {DieAtLaunch: 40}},
			Respawn:      true,
		}, func(r *antgpu.IslandsResult, err error) bool {
			return err == nil && r.Report.Islands[1].Respawns == 1 && r.Report.Islands[3].Respawns == 1 &&
				r.Report.ActiveIslands == 4
		}},
		{"min-islands", antgpu.IslandOptions{
			IslandFaults: []*antgpu.FaultPlan{nil, {DieAtLaunch: 20}, nil, {DieAtLaunch: 40}},
			MinIslands:   3,
		}, func(_ *antgpu.IslandsResult, err error) bool {
			return err != nil && strings.Contains(err.Error(), "MinIslands")
		}},
	}
}

// goldenIslandLine runs one island cell and renders its table line: the
// key ("islands", instance, cell), then the best length, the tour hash,
// the best island, the bits of SimulatedSeconds and the IslandReport as
// JSON — or, for a failed run, "-" for the first four and the error text
// in place of the report. Island logs are not pinned: the island
// goroutines interleave their events differently from run to run.
func goldenIslandLine(in *antgpu.Instance, c goldenIslandCell) (string, *antgpu.IslandsResult, error) {
	opts := c.opts
	opts.Islands = 4
	opts.Iterations = 12
	opts.Params = antgpu.Params{Seed: 1}
	opts.MigrationEvery = 3
	opts.StagnationIters = 4
	res, err := antgpu.SolveIslands(in, opts)
	key := fmt.Sprintf("islands %s %s", in.Name, c.name)
	if err != nil {
		return fmt.Sprintf("%s - - - - error: %v", key, err), nil, err
	}
	rep, jerr := json.Marshal(res.Report)
	if jerr != nil {
		return "", nil, jerr
	}
	return fmt.Sprintf("%s %d %016x %d %016x %s", key, res.BestLen, tourHash(res.BestTour), res.BestIsland,
		math.Float64bits(res.SimulatedSeconds), rep), res, nil
}

// TestGoldenIslands pins the island runtime on att48: a clean fleet,
// transient faults ridden out by retries, one island killed and
// quarantined, two killed and respawned, and a run that loses more
// islands than MinIslands allows.
func TestGoldenIslands(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden table is pinned on amd64; other ports may fuse multiply-adds")
	}
	want := readGolden(t, "islands", 3)
	cells := goldenIslandCells()
	if len(want) != len(cells) {
		t.Errorf("%s has %d island cells, the sweep has %d", goldenPath, len(want), len(cells))
	}
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, res, err := goldenIslandLine(in, c)
			if got == "" {
				t.Fatal(err)
			}
			if !c.path(res, err) {
				t.Errorf("cell no longer takes its path: %s", got)
			}
			checkGoldenLine(t, want, 3, got)
		})
	}
}

// checkGoldenLine compares a computed fault or island line with the
// committed one of the same key, whole.
func checkGoldenLine(t *testing.T, want map[string]string, keyLen int, got string) {
	t.Helper()
	key := strings.Join(strings.Fields(got)[:keyLen], " ")
	w, ok := want[key]
	if !ok {
		t.Fatalf("no golden line; computed:\n%s", got)
	}
	if got != w {
		t.Errorf("result changed\n got: %s\nwant: %s", got, w)
	}
}

// goldenTraceCell is one profiled run of TestGoldenTraces: its name in the
// table, whether its trace carries host wall-clock time (the tensor
// backend), and the run that returns the trace.
type goldenTraceCell struct {
	name      string
	wallClock bool
	run       func(*antgpu.Instance) (*antgpu.Trace, error)
}

// goldenTraceCells lists the profiled sweep on att48, seed 1: every cell of
// the main sweep (every solvable pair, AS with 2-opt on each backend, both
// construction rules on cpu and tensor) at its 4 iterations, the
// die-failover fault cell of TestGoldenFaults at 4 iterations, and a
// 3-island SolveIslands run with transient faults and one island killed and
// respawned.
func goldenTraceCells() []goldenTraceCell {
	var cells []goldenTraceCell
	for _, c := range goldenCells() {
		if c.instance != "att48" || c.seed != 1 {
			continue
		}
		c := c
		cells = append(cells, goldenTraceCell{strings.ReplaceAll(c.key(), " ", "/"), c.backend == antgpu.BackendTensor,
			func(in *antgpu.Instance) (*antgpu.Trace, error) {
				res, err := antgpu.Solve(in, antgpu.SolveOptions{
					Algorithm: c.alg, Backend: c.backend, Iterations: goldenIterations,
					Params: antgpu.Params{Seed: c.seed}, Variant: c.variant, LocalSearch: c.ls, Profile: true,
				})
				if err != nil {
					return nil, err
				}
				return res.Trace, nil
			}})
	}
	cells = append(cells, goldenTraceCell{"att48/1/gpu/as/die-failover", false,
		func(in *antgpu.Instance) (*antgpu.Trace, error) {
			res, err := antgpu.Solve(in, antgpu.SolveOptions{
				Backend: antgpu.BackendGPU, Iterations: goldenIterations, Params: antgpu.Params{Seed: 1},
				Faults: &antgpu.FaultPlan{DieAtLaunch: 12}, Recovery: &antgpu.RecoveryOptions{MaxConsecutiveFaults: 2},
				Profile: true,
			})
			if err != nil {
				return nil, err
			}
			if r := res.Recovery; !r.Degraded || r.Resets == 0 {
				return nil, fmt.Errorf("solve no longer resets and fails over: %+v", r)
			}
			return res.Trace, nil
		}})
	cells = append(cells, goldenTraceCell{"att48/1/islands/respawn", false,
		func(in *antgpu.Instance) (*antgpu.Trace, error) {
			res, err := antgpu.SolveIslands(in, antgpu.IslandOptions{
				Islands: 3, Iterations: goldenIterations, Params: antgpu.Params{Seed: 1},
				MigrationEvery: 2, StagnationIters: 2,
				Faults:       &antgpu.FaultPlan{Seed: 20, LaunchRate: 0.02, ECCRate: 0.01},
				IslandFaults: []*antgpu.FaultPlan{nil, {DieAtLaunch: 14}},
				Respawn:      true, Profile: true,
			})
			if err != nil {
				return nil, err
			}
			if res.Report.Islands[1].Respawns != 1 {
				return nil, fmt.Errorf("island 1 no longer respawns: %+v", res.Report.Islands[1])
			}
			return res.Trace, nil
		}})
	return cells
}

// goldenTraceLine runs one trace cell and renders its table line: the key
// ("trace", cell name), the event count and a SHA-256 digest — of the whole
// Chrome trace export, or, for a wall-clock trace, of its event name and
// category sequence.
func goldenTraceLine(in *antgpu.Instance, c goldenTraceCell) (string, error) {
	tr, err := c.run(in)
	if err != nil {
		return "", err
	}
	var buf bytes.Buffer
	if c.wallClock {
		for _, ev := range tr.Events() {
			fmt.Fprintf(&buf, "%s %s\n", ev.Name, ev.Cat)
		}
	} else if err := tr.WriteChromeTrace(&buf); err != nil {
		return "", err
	}
	return fmt.Sprintf("trace %s %d %x", c.name, len(tr.Events()), sha256.Sum256(buf.Bytes())), nil
}

// TestGoldenTraces pins the profiler's view of every pair: the Chrome trace
// of each simulated-clock run byte for byte, and the phase and kernel
// sequence of each tensor run, whose leaves carry host wall-clock time.
func TestGoldenTraces(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden table is pinned on amd64; other ports may fuse multiply-adds")
	}
	want := readGolden(t, "trace", 2)
	cells := goldenTraceCells()
	if len(want) != len(cells) {
		t.Errorf("%s has %d trace cells, the sweep has %d", goldenPath, len(want), len(cells))
	}
	in, err := antgpu.LoadBenchmark("att48")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, err := goldenTraceLine(in, c)
			if err != nil {
				t.Fatal(err)
			}
			checkGoldenLine(t, want, 2, got)
		})
	}
}
