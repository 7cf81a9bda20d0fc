package core_test

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"antgpu/internal/aco"
	"antgpu/internal/core"
	"antgpu/internal/cuda"
	"antgpu/internal/rng"
	"antgpu/internal/tsp"
)

const islandIters = 12

func islandDevs(n int) []*cuda.Device {
	base := cuda.TeslaM2050()
	out := make([]*cuda.Device, n)
	for i := range out {
		out[i] = base.Clone()
	}
	return out
}

func mustRunIslands(t *testing.T, devs []*cuda.Device, in *tsp.Instance, p aco.Params, cfg core.IslandConfig) *core.IslandsResult {
	t.Helper()
	r, err := core.RunIslands(context.Background(), devs, in, p, cfg)
	if err != nil {
		t.Fatalf("RunIslands: %v", err)
	}
	if err := in.ValidTour(r.BestTour); err != nil {
		t.Fatalf("best tour invalid: %v", err)
	}
	return r
}

// TestIslandsDeterminism: fault-free island runs are byte-deterministic
// for a fixed master seed — tours, lengths, simulated clock, trajectory
// and every per-island stat.
func TestIslandsDeterminism(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 7
	cfg := core.IslandConfig{Iterations: islandIters}

	a := mustRunIslands(t, islandDevs(4), in, p, cfg)
	b := mustRunIslands(t, islandDevs(4), in, p, cfg)

	if a.BestLen != b.BestLen || a.BestIsland != b.BestIsland || a.Seconds != b.Seconds {
		t.Fatalf("runs differ: (%d, %d, %g) vs (%d, %d, %g)",
			a.BestLen, a.BestIsland, a.Seconds, b.BestLen, b.BestIsland, b.Seconds)
	}
	if !reflect.DeepEqual(a.BestTour, b.BestTour) {
		t.Fatal("best tours differ between identical runs")
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatalf("reports differ:\n%+v\nvs\n%+v", a.Report, b.Report)
	}
}

// TestIslandsSingleMatchesEngine: one island with jitter disabled is
// exactly the plain engine loop — the runtime's checkpointing, stats and
// barriers add no perturbation.
func TestIslandsSingleMatchesEngine(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 11

	cfg := core.IslandConfig{Iterations: islandIters, Tour: core.TourNNSharedTexture}
	r := mustRunIslands(t, islandDevs(1), in, p, cfg)

	e, err := core.NewEngine(cuda.TeslaM2050(), in, p)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	defer e.Free()
	tour, l, _, err := e.Run(core.TourNNSharedTexture, core.PherAtomicShared, islandIters)
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	if r.BestLen != l {
		t.Fatalf("island BestLen = %d, engine = %d", r.BestLen, l)
	}
	if !reflect.DeepEqual(r.BestTour, tour) {
		t.Fatal("island tour differs from engine tour")
	}
}

// TestIslandsDegradedFleet is the acceptance scenario: a fault plan
// permanently kills 1 of 4 islands halfway through its launch schedule.
// The run must complete without error, record the quarantine, stay within
// 2% of the fault-free ensemble, and remain byte-reproducible.
func TestIslandsDegradedFleet(t *testing.T) {
	p := aco.DefaultParams()
	p.Seed = 7
	const victim = 2

	for _, name := range []string{"att48", "kroC100"} {
		t.Run(name, func(t *testing.T) {
			in := tsp.MustLoadBenchmark(name)
			cfg := core.IslandConfig{Iterations: islandIters}

			// Fault-free baseline, with a zero-rate plan on the victim so
			// its launch opportunities are counted without any injection.
			devs := islandDevs(4)
			counter := &cuda.FaultPlan{}
			devs[victim].Faults = counter
			clean := mustRunIslands(t, devs, in, p, cfg)
			if q := clean.Report.Quarantined(); q != 0 {
				t.Fatalf("baseline quarantined %d islands", q)
			}

			kill := counter.Launches() / 2
			if kill == 0 {
				t.Fatal("victim saw no launches; kill point is meaningless")
			}

			killRun := func() *core.IslandsResult {
				devs := islandDevs(4)
				devs[victim].Faults = &cuda.FaultPlan{DieAtLaunch: kill}
				return mustRunIslands(t, devs, in, p, cfg)
			}
			r := killRun()

			st := r.Report.Islands[victim]
			if !st.Quarantined || st.State != "quarantined" {
				t.Fatalf("victim not quarantined: %+v", st)
			}
			if st.QuarantineIteration == 0 || st.QuarantineIteration > islandIters {
				t.Fatalf("quarantine iteration %d out of range", st.QuarantineIteration)
			}
			if st.Faults == 0 || st.Retries == 0 {
				t.Fatalf("victim stats missing fault activity: %+v", st)
			}
			if r.Report.ActiveIslands != 3 {
				t.Fatalf("ActiveIslands = %d, want 3", r.Report.ActiveIslands)
			}
			gap := math.Abs(float64(r.BestLen)-float64(clean.BestLen)) / float64(clean.BestLen)
			if gap > 0.02 {
				t.Fatalf("degraded best %d vs fault-free %d: gap %.2f%% > 2%%",
					r.BestLen, clean.BestLen, gap*100)
			}

			// Same kill point → byte-identical degraded run.
			r2 := killRun()
			if !reflect.DeepEqual(r.BestTour, r2.BestTour) || !reflect.DeepEqual(r.Report, r2.Report) {
				t.Fatal("degraded runs with the same kill point differ")
			}
		})
	}
}

// TestIslandsSurvivorsUnperturbed is the order-independent seeding
// guarantee (satellite: rng.IslandSeed): with migration off, killing one
// island leaves every surviving island's result bit-identical to the
// fault-free run — island streams are pure functions of (master seed, id),
// not of fleet composition.
func TestIslandsSurvivorsUnperturbed(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 9
	cfg := core.IslandConfig{Iterations: islandIters, MigrationEvery: -1}

	clean := mustRunIslands(t, islandDevs(4), in, p, cfg)

	devs := islandDevs(4)
	devs[1].Faults = &cuda.FaultPlan{DieAtLaunch: 5}
	r := mustRunIslands(t, devs, in, p, cfg)

	if !r.Report.Islands[1].Quarantined {
		t.Fatal("victim not quarantined")
	}
	for _, id := range []int{0, 2, 3} {
		got, want := r.Report.Islands[id], clean.Report.Islands[id]
		if got.BestLen != want.BestLen || got.Iterations != want.Iterations || got.Seconds != want.Seconds {
			t.Fatalf("island %d perturbed by the kill: got %+v, want %+v", id, got, want)
		}
	}
}

// TestIslandsRespawn: with Respawn enabled, a permanently dead board is
// replaced by a fresh healthy device and the island resumes from its last
// checkpoint instead of leaving the run.
func TestIslandsRespawn(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 7
	cfg := core.IslandConfig{Iterations: islandIters, Respawn: true}

	devs := islandDevs(4)
	devs[1].Faults = &cuda.FaultPlan{DieAtLaunch: 40}
	r := mustRunIslands(t, devs, in, p, cfg)

	st := r.Report.Islands[1]
	if st.Respawns != 1 {
		t.Fatalf("Respawns = %d, want 1 (%+v)", st.Respawns, st)
	}
	if st.Quarantined || st.State != "respawned" {
		t.Fatalf("island 1 state %q, want respawned (%+v)", st.State, st)
	}
	if r.Report.ActiveIslands != 4 {
		t.Fatalf("ActiveIslands = %d, want 4", r.Report.ActiveIslands)
	}
	// The respawned island lost exactly the fleet iterations it spent dead.
	if st.Iterations >= islandIters || st.Iterations == 0 {
		t.Fatalf("respawned island completed %d iterations, want within (0, %d)", st.Iterations, islandIters)
	}
}

// TestIslandsMinIslands: losing more islands than MinIslands allows fails
// the run instead of silently returning a husk ensemble.
func TestIslandsMinIslands(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 7

	devs := islandDevs(4)
	for i := range devs {
		devs[i].Faults = &cuda.FaultPlan{DieAtLaunch: 1}
	}
	_, err := core.RunIslands(context.Background(), devs, in, p, core.IslandConfig{Iterations: islandIters})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("want quarantine-exhaustion error, got %v", err)
	}

	// Killing one island with MinIslands=4 also fails.
	devs = islandDevs(4)
	devs[0].Faults = &cuda.FaultPlan{DieAtLaunch: 5}
	_, err = core.RunIslands(context.Background(), devs, in, p,
		core.IslandConfig{Iterations: islandIters, MinIslands: 4})
	if err == nil || !strings.Contains(err.Error(), "MinIslands") {
		t.Fatalf("want MinIslands error, got %v", err)
	}
}

// TestIslandsMigrationAndRestarts: the diversification mechanisms actually
// fire — migrations are exchanged on the ring, and a tight stagnation
// budget triggers trail restarts.
func TestIslandsMigrationAndRestarts(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 3

	r := mustRunIslands(t, islandDevs(4), in, p,
		core.IslandConfig{Iterations: 8, MigrationEvery: 2, StagnationIters: 1})

	migs, restarts := 0, 0
	for _, st := range r.Report.Islands {
		migs += st.MigrationsAccepted + st.MigrationsRejected
		restarts += st.Restarts
	}
	if migs == 0 {
		t.Fatal("no migration activity recorded")
	}
	if restarts == 0 {
		t.Fatal("no stagnation restarts recorded with StagnationIters=1")
	}
	if len(r.Report.EnsembleBest) != 8 {
		t.Fatalf("trajectory length %d, want 8", len(r.Report.EnsembleBest))
	}
	for i := 1; i < len(r.Report.EnsembleBest); i++ {
		if r.Report.EnsembleBest[i] > r.Report.EnsembleBest[i-1] {
			t.Fatalf("ensemble best regressed at iteration %d: %v", i, r.Report.EnsembleBest)
		}
	}
}

// TestIslandsRecoverTransientFaults: islands ride out low-rate transient
// faults through their per-island retry/reset machinery without anyone
// being quarantined.
func TestIslandsRecoverTransientFaults(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	p := aco.DefaultParams()
	p.Seed = 7
	cfg := core.IslandConfig{Iterations: islandIters}

	clean := mustRunIslands(t, islandDevs(4), in, p, cfg)

	devs := islandDevs(4)
	for i := range devs {
		devs[i].Faults = &cuda.FaultPlan{Seed: uint64(20 + i), LaunchRate: 0.02, ECCRate: 0.01}
	}
	r := mustRunIslands(t, devs, in, p, cfg)

	faults := 0
	for _, st := range r.Report.Islands {
		faults += st.Faults
	}
	if faults == 0 {
		t.Fatal("no faults injected; the case tests nothing")
	}
	if q := r.Report.Quarantined(); q != 0 {
		t.Fatalf("%d islands quarantined at low fault rates (%s)", q, r.Report)
	}
	// Retried iterations replay from checkpoints, so results match the
	// fault-free ensemble exactly.
	if r.BestLen != clean.BestLen || !reflect.DeepEqual(r.BestTour, clean.BestTour) {
		t.Fatalf("recovered ensemble diverged: %d vs %d", r.BestLen, clean.BestLen)
	}
}

// TestIslandsCancellation: a cancelled context aborts the fleet promptly
// with the context error.
func TestIslandsCancellation(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := core.RunIslands(ctx, islandDevs(2), in, aco.DefaultParams(), core.IslandConfig{Iterations: 4})
	if err != context.Canceled {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestIslandParamsDerivation: island 0 runs the master parameters
// unchanged; other islands get distinct order-independent seeds and
// bounded jitter.
func TestIslandParamsDerivation(t *testing.T) {
	p := aco.DefaultParams()
	p.Seed = 42

	if got := core.IslandParams(p, 0, 0.1); got != p {
		t.Fatalf("island 0 params changed: %+v", got)
	}
	seen := map[uint64]bool{p.Seed: true}
	for i := 1; i < 16; i++ {
		q := core.IslandParams(p, i, 0.1)
		if seen[q.Seed] {
			t.Fatalf("island %d seed %d collides", i, q.Seed)
		}
		seen[q.Seed] = true
		if q.Seed != rng.IslandSeed(p.Seed, i) {
			t.Fatalf("island %d seed not rng.IslandSeed-derived", i)
		}
		check := func(name string, got, base, jitter float64) {
			if math.Abs(got-base) > base*jitter*1.0000001 {
				t.Fatalf("island %d %s = %g jittered beyond ±%.0f%% of %g", i, name, got, jitter*100, base)
			}
		}
		check("alpha", q.Alpha, p.Alpha, 0.1)
		check("beta", q.Beta, p.Beta, 0.1)
		check("rho", q.Rho, p.Rho, 0.1)
		if q.Rho <= 0 || q.Rho > 1 {
			t.Fatalf("island %d rho %g out of range", i, q.Rho)
		}
	}
}

// panicOnLaunch is a launch observer that panics on its at-th launch.
type panicOnLaunch struct{ n, at int }

func (p *panicOnLaunch) ObserveLaunch(*cuda.LaunchConfig, *cuda.LaunchResult) {
	p.n++
	if p.n == p.at {
		panic("observer failure")
	}
}

// TestIslandsStepPanicFailsRun: a panic on an island's step goroutine —
// here in a device's metrics hook, which cuda.Launch calls outside its
// kernel recover — fails the run with an error naming the island instead
// of killing the process.
func TestIslandsStepPanicFailsRun(t *testing.T) {
	in := tsp.MustLoadBenchmark("att48")
	devs := islandDevs(2)
	devs[1].Metrics = &panicOnLaunch{at: 3}
	_, err := core.RunIslands(context.Background(), devs, in, aco.DefaultParams(), core.IslandConfig{Iterations: 4})
	if err == nil || !strings.Contains(err.Error(), "island 1") || !strings.Contains(err.Error(), "observer failure") {
		t.Fatalf("want an island 1 error carrying the panic, got %v", err)
	}
}
