package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"strconv"
	"sync"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/metrics"
	"antgpu/internal/obslog"
	"antgpu/internal/rng"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Island-model multi-colony runtime. N colonies run on N independently
// cloned devices, each with deterministically jittered parameters derived
// from the master seed, exchanging best tours on a ring at fixed intervals
// and restarting their trails on stagnation. The robustness core is the
// degraded-fleet model: every island carries its own fault plan and
// recovery policy, and an island that exhausts its retries — a sticky
// poisoned context, repeated watchdog/ECC/OOM, or a permanently dead board
// (FaultPlan.DieAtLaunch) — is quarantined. The migration ring closes over
// the survivors, and the run either respawns the island on a fresh device
// or finishes as an (N-1)-island ensemble, recording everything in an
// IslandReport.
//
// Determinism contract. Island goroutines run one iteration each between
// barriers; every cross-island interaction — migration, quarantine
// handling, respawn, the ensemble-best trajectory — happens in a serial
// host phase between barriers, in island-id order. Per-island seeds are
// pure functions of (master seed, island id) via rng.IslandSeed, never
// positions in a shared stream. Together these make fault-free runs
// byte-deterministic for a fixed master seed, and a degraded (N-1)-island
// run byte-reproducible given the same kill point: the surviving islands
// draw exactly the random numbers they drew before the kill, and only the
// migration edges that touched the dead island change.

// IslandConfig tunes RunIslands. The zero value selects the defaults noted
// per field; negative values disable the optional mechanisms.
type IslandConfig struct {
	// Iterations is the number of colony iterations per island (default 20).
	Iterations int
	// Tour selects the construction kernel (default the per-size
	// recommendation: data-parallel texture up to 500 cities, NN-list
	// shared texture beyond).
	Tour TourVersion
	// Pher selects the pheromone kernel (default atomic + shared memory).
	Pher PherVersion
	// MigrationEvery is the iteration interval between best-tour exchanges
	// on the ring (default 10; negative disables migration).
	MigrationEvery int
	// MigrationWeight scales the elite deposit a migrant's tour receives on
	// the accepting island (default: the island's ant count, the classical
	// elitist weight).
	MigrationWeight float64
	// StagnationIters restarts an island's trails after this many
	// iterations without improving its best-so-far (default 30; negative
	// disables restarts).
	StagnationIters int
	// Jitter is the relative half-width of the per-island parameter jitter:
	// island i > 0 runs with alpha, beta and rho each scaled by a
	// deterministic factor in [1-Jitter, 1+Jitter] drawn from its island
	// seed (default 0.1; negative disables jitter). Island 0 always runs
	// the master parameters unchanged.
	Jitter float64
	// Recovery tunes each island's per-iteration fault handling (retry
	// budget, backoff). Failover is not used at the island level — an
	// island out of retries is quarantined or respawned instead of
	// degrading to the CPU.
	Recovery RecoveryOptions
	// Respawn replaces a quarantined island's device with a fresh, healthy
	// clone (no fault plan) and resumes the island from its last
	// checkpoint, instead of degrading to an (N-1)-island ensemble.
	Respawn bool
	// MaxRespawns bounds respawns per island (default 1). An island that
	// dies beyond the budget is quarantined for good.
	MaxRespawns int
	// MinIslands is the minimum number of non-quarantined islands the run
	// may degrade to (default 1); losing more fails the run.
	MinIslands int
	// Tracer, when non-nil, receives the merged timeline: each island
	// records on its own collector (its own simulated clock), and the
	// runtime merges them all onto the shared clock at the end.
	Tracer *trace.Collector
	// Metrics, when non-nil, receives the per-island series: a state gauge
	// and fault/restart/migration/quarantine/respawn counters labeled by
	// island id, plus the ensemble-best gauge.
	Metrics *metrics.Registry
	// Logger, when non-nil, receives one structured event per fault, retry,
	// reset, restart, migration, quarantine and respawn, each carrying the
	// island index on top of the context's correlation.
	Logger *obslog.Logger
}

func (c IslandConfig) withDefaults(in *tsp.Instance) IslandConfig {
	if c.Iterations <= 0 {
		c.Iterations = 20
	}
	if c.Tour == 0 {
		c.Tour = DefaultTourVersion(in.N())
	}
	if c.Pher == 0 {
		c.Pher = PherAtomicShared
	}
	if c.MigrationEvery == 0 {
		c.MigrationEvery = 10
	}
	if c.StagnationIters == 0 {
		c.StagnationIters = 30
	}
	if c.Jitter == 0 {
		c.Jitter = 0.1
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	if c.MaxRespawns <= 0 {
		c.MaxRespawns = 1
	}
	if c.MinIslands <= 0 {
		c.MinIslands = 1
	}
	c.Recovery = c.Recovery.withDefaults()
	return c
}

// IslandState is an island's position in the quarantine/respawn state
// machine.
type IslandState int

const (
	// IslandRunning is the healthy state.
	IslandRunning IslandState = iota
	// IslandRespawned marks an island that lost a device and resumed from
	// its last checkpoint on a fresh one.
	IslandRespawned
	// IslandQuarantined marks an island removed from the run: its retries
	// were exhausted and no respawn budget remained. The ring closes over
	// the survivors; its best-so-far still counts toward the ensemble.
	IslandQuarantined
)

func (s IslandState) String() string {
	switch s {
	case IslandRunning:
		return "running"
	case IslandRespawned:
		return "respawned"
	case IslandQuarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("IslandState(%d)", int(s))
	}
}

// jitterStream is the rng stream the parameter-jitter draws come from,
// distinct from every stream the colony itself consumes.
const jitterStream = 0x9177E2

// IslandParams derives island i's parameters from the master parameters:
// island 0 runs them unchanged; island i > 0 gets its own order-independent
// seed (rng.IslandSeed) and, with jitter > 0, alpha/beta/rho scaled by
// deterministic factors in [1-jitter, 1+jitter] drawn from that seed. Rho
// is clamped to (0, 1]. Exported so harnesses and tests can reproduce an
// island's exact configuration.
func IslandParams(p aco.Params, island int, jitter float64) aco.Params {
	if island == 0 {
		return p
	}
	q := p
	q.Seed = rng.IslandSeed(p.Seed, island)
	if jitter > 0 {
		g := rng.Seed(q.Seed, jitterStream)
		scale := func(v float64) float64 { return v * (1 + jitter*(2*g.Float64()-1)) }
		q.Alpha = scale(p.Alpha)
		q.Beta = scale(p.Beta)
		rho := scale(p.Rho)
		if rho > 1 {
			rho = 1
		}
		if rho <= 0 {
			rho = p.Rho
		}
		q.Rho = rho
	}
	return q
}

// IslandStats records one island's activity over a run.
type IslandStats struct {
	ID                  int     `json:"id"`
	Seed                uint64  `json:"seed"`
	Alpha               float64 `json:"alpha"`
	Beta                float64 `json:"beta"`
	Rho                 float64 `json:"rho"`
	Iterations          int     `json:"iterations"` // completed colony iterations
	BestLen             int64   `json:"best_len"`   // island best-so-far (0 if none)
	Seconds             float64 `json:"sim_seconds"`
	Faults              int     `json:"faults"`
	Retries             int     `json:"retries"`
	Resets              int     `json:"resets"`
	Restarts            int     `json:"restarts"` // stagnation trail restarts
	Respawns            int     `json:"respawns"`
	MigrationsAccepted  int     `json:"migrations_accepted"`
	MigrationsRejected  int     `json:"migrations_rejected"`
	BackoffSeconds      float64 `json:"backoff_seconds"`
	State               string  `json:"state"`
	Quarantined         bool    `json:"quarantined"`
	QuarantineIteration int     `json:"quarantine_iteration,omitempty"` // fleet iteration (1-based)
}

// IslandReport records what the island runtime did during a run.
type IslandReport struct {
	Islands []IslandStats `json:"islands"`
	// EnsembleBest is the best-so-far tour length across all islands after
	// each fleet iteration (0 until any island has a tour).
	EnsembleBest []int64 `json:"ensemble_best"`
	// ActiveIslands is the number of non-quarantined islands at the end.
	ActiveIslands int `json:"active_islands"`
}

// Quarantined returns the number of quarantined islands.
func (r *IslandReport) Quarantined() int {
	q := 0
	for _, s := range r.Islands {
		if s.Quarantined {
			q++
		}
	}
	return q
}

func (r *IslandReport) String() string {
	if r == nil {
		return "islands: no report"
	}
	faults, migs, restarts, respawns := 0, 0, 0, 0
	for _, s := range r.Islands {
		faults += s.Faults
		migs += s.MigrationsAccepted
		restarts += s.Restarts
		respawns += s.Respawns
	}
	return fmt.Sprintf("islands: %d/%d active, %d faults, %d quarantined, %d respawns, %d restarts, %d migrations accepted",
		r.ActiveIslands, len(r.Islands), faults, r.Quarantined(), respawns, restarts, migs)
}

// IslandsResult is the outcome of a RunIslands call.
type IslandsResult struct {
	BestTour   []int32
	BestLen    int64
	BestIsland int
	// Seconds is the simulated wall-clock of the fleet: the maximum over
	// islands of per-island kernel time plus retry backoff (islands run
	// concurrently, so the slowest island sets the pace).
	Seconds float64
	Report  *IslandReport
}

// island is the runtime state of one colony: its recovery ladder and the
// island policy around it.
type island struct {
	id int
	rc *Recoverer
	tr *trace.Collector

	// lg/ctx: the run logger and the run context with this island's index
	// folded into the correlation, so every event the island emits carries
	// (request, job, island).
	lg  *obslog.Logger
	ctx context.Context

	state        IslandState
	bestLen      int64
	bestTour     []int32
	sinceImprove int
	stagnate     int

	stats IslandStats

	// Instruments (zero values are no-ops when no registry is attached).
	stateG   metrics.Gauge
	faultC   metrics.Counter
	restartC metrics.Counter
	migAccC  metrics.Counter
	migRejC  metrics.Counter
	quarC    metrics.Counter
	respawnC metrics.Counter
}

// step runs one colony iteration through the island's recovery ladder,
// then tracks the island's best-so-far and restarts its trails on
// stagnation. It is the only island code that runs concurrently with other
// islands, and it touches nothing outside the island's own state.
func (is *island) step() error {
	faults := is.rc.Report().Faults
	err := is.rc.Step(is.ctx)
	is.faultC.Add(float64(is.rc.Report().Faults - faults))
	if err != nil {
		return err
	}
	e := is.rc.Engine()
	if tour, best := e.Best(); best < is.bestLen {
		is.bestLen = best
		is.bestTour = append([]int32(nil), tour...)
		is.sinceImprove = 0
	} else {
		is.sinceImprove++
	}
	if is.stagnate > 0 && is.sinceImprove >= is.stagnate {
		// Stagnation restart: re-initialise the trails to tau0 and let
		// construction re-diversify; the island keeps its best-so-far
		// and its RNG streams keep advancing.
		e.ResetPheromone()
		is.rc.Checkpoint()
		is.sinceImprove = 0
		is.stats.Restarts++
		is.restartC.Inc()
		is.tr.Span("island:restart", 0)
		if is.lg.Enabled(slog.LevelInfo) {
			is.lg.Event(is.ctx, obslog.EvRestart,
				slog.Int("iter", is.rc.Iterations()), slog.Int64("best_len", is.bestLen))
		}
	}
	return nil
}

// RunIslands runs one colony per device with periodic ring migration,
// stagnation restarts and per-island fault recovery, surviving the
// permanent loss of islands down to cfg.MinIslands. Each device should be
// an independent clone (cuda.Device.Clone) carrying its own FaultPlan;
// devices are mutated by the run and must not be shared. A respawned
// island's replacement (cuda.Device.Respawn) takes its place in the run's
// own copy of the slice, never in the caller's.
//
// The returned result carries the ensemble-best tour and an IslandReport
// of per-island faults, restarts, migrations and quarantines. Errors other
// than device faults (bad parameters, cancellation) abort the whole run; an
// instance with a distance above tsp.MaxExactDistF32 fails with
// tsp.ErrF32Precision before any island steps.
func RunIslands(ctx context.Context, devices []*cuda.Device, in *tsp.Instance, p aco.Params, cfg IslandConfig) (*IslandsResult, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: RunIslands needs at least one device")
	}
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(in)
	n := len(devices)
	devices = append([]*cuda.Device(nil), devices...)

	// Every island's engine converts the distances to float32; refuse an
	// instance beyond the exact-float32 range before any island steps, so
	// the refusal is one typed error rather than a failure per island.
	if err := in.CheckDistF32(); err != nil {
		return nil, err
	}
	// The instance-derived data (NN lists, C^nn) is identical across
	// islands; compute it once and share it read-only.
	derived := in.Derive(p.NN, true)

	// An island out of retries is quarantined or respawned, never
	// degraded to the CPU colony.
	rec := cfg.Recovery
	rec.DisableFailover = true
	islands := make([]*island, n)
	for i := range islands {
		ip := IslandParams(p, i, cfg.Jitter)
		is := &island{
			id:       i,
			lg:       cfg.Logger,
			ctx:      obslog.WithIsland(ctx, i),
			bestLen:  math.MaxInt64,
			stagnate: cfg.StagnationIters,
		}
		if cfg.Tracer != nil {
			is.tr = trace.NewCollector()
			is.tr.Begin(fmt.Sprintf("island-%d", i))
		}
		is.rc = NewRecoverer(devices[i], in, ip, derived, cfg.Tour, cfg.Pher, cfg.Iterations, rec, is.tr, is.lg)
		if m := cfg.Metrics; m != nil {
			id := strconv.Itoa(i)
			is.stateG = m.Gauge("antgpu_island_state",
				"Island state (0 running, 1 respawned, 2 quarantined).", "island", id)
			is.faultC = m.Counter("antgpu_island_faults_total",
				"Device faults observed by the island runtime.", "island", id)
			is.restartC = m.Counter("antgpu_island_restarts_total",
				"Stagnation-triggered trail restarts.", "island", id)
			is.migAccC = m.Counter("antgpu_island_migrations_total",
				"Ring migrations by outcome.", "island", id, "outcome", "accepted")
			is.migRejC = m.Counter("antgpu_island_migrations_total",
				"Ring migrations by outcome.", "island", id, "outcome", "rejected")
			is.quarC = m.Counter("antgpu_island_quarantines_total",
				"Islands removed from the run after exhausting retries.", "island", id)
			is.respawnC = m.Counter("antgpu_island_respawns_total",
				"Islands resumed on a fresh device after losing theirs.", "island", id)
			is.stateG.Set(float64(IslandRunning))
		}
		is.stats = IslandStats{ID: i, Seed: ip.Seed, Alpha: ip.Alpha, Beta: ip.Beta, Rho: ip.Rho}
		islands[i] = is
	}
	ensembleG := cfg.Metrics.Gauge("antgpu_islands_best_length",
		"Ensemble best tour length across all islands.")
	activeG := cfg.Metrics.Gauge("antgpu_islands_active",
		"Islands not quarantined.")

	cleanup := func() {
		for _, is := range islands {
			is.rc.Close()
		}
	}
	finishTraces := func() {
		if cfg.Tracer == nil {
			return
		}
		for _, is := range islands {
			is.tr.End()
			cfg.Tracer.MergeAt(is.tr, 0)
		}
	}

	report := &IslandReport{EnsembleBest: make([]int64, 0, cfg.Iterations)}
	bestLen := int64(math.MaxInt64)
	var bestTour []int32
	bestIsland := -1
	active := n
	activeG.Set(float64(active))

	fail := func(err error) (*IslandsResult, error) {
		cleanup()
		finishTraces()
		return nil, err
	}

	for it := 0; it < cfg.Iterations; it++ {
		if err := ctx.Err(); err != nil {
			return fail(err)
		}

		// Parallel phase: every non-quarantined island runs one iteration.
		// Islands share nothing mutable (own device, engine, collector), so
		// the schedule cannot affect results.
		errs := make([]error, n)
		var wg sync.WaitGroup
		for _, is := range islands {
			if is.state == IslandQuarantined {
				continue
			}
			wg.Add(1)
			go func(is *island) {
				defer wg.Done()
				// A panic here would kill the process: the caller's
				// recover cannot see another goroutine. As an error it is
				// not a fault, so the serial phase fails the run.
				defer func() {
					if r := recover(); r != nil {
						errs[is.id] = fmt.Errorf("panic: %v", r)
					}
				}()
				errs[is.id] = is.step()
			}(is)
		}
		wg.Wait()

		// Serial phase 1: escalate islands whose retry budget ran out, in
		// island-id order.
		for _, is := range islands {
			err := errs[is.id]
			if err == nil || is.state == IslandQuarantined {
				continue
			}
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return fail(err)
			}
			if !isFault(err) {
				return fail(fmt.Errorf("core: island %d: %w", is.id, err))
			}
			if cfg.Respawn && is.stats.Respawns < cfg.MaxRespawns {
				// Respawn: a fresh, healthy device (no fault plan — the
				// replacement board is presumed good) takes the slot; the
				// island resumes from its last checkpoint next iteration.
				devices[is.id] = devices[is.id].Respawn()
				is.rc.Abandon(devices[is.id])
				is.stats.Respawns++
				is.state = IslandRespawned
				is.respawnC.Inc()
				is.stateG.Set(float64(IslandRespawned))
				is.tr.Fault("island:respawn", 0)
				if is.lg.Enabled(slog.LevelInfo) {
					is.lg.Event(is.ctx, obslog.EvRespawn,
						slog.Int("fleet_iter", it+1), slog.Int("respawns", is.stats.Respawns))
				}
			} else {
				is.rc.Abandon(nil)
				is.state = IslandQuarantined
				is.stats.Quarantined = true
				is.stats.QuarantineIteration = it + 1
				is.quarC.Inc()
				is.stateG.Set(float64(IslandQuarantined))
				is.tr.Fault("island:quarantine", 0)
				active--
				activeG.Set(float64(active))
				if is.lg.Enabled(slog.LevelInfo) {
					is.lg.Event(is.ctx, obslog.EvQuarantine,
						slog.Int("fleet_iter", it+1), slog.Int("active", active))
				}
			}
		}
		if active < cfg.MinIslands {
			return fail(fmt.Errorf("core: %d of %d islands quarantined, fewer than MinIslands=%d left",
				n-active, n, cfg.MinIslands))
		}

		// Serial phase 2: ring migration over the surviving islands, in
		// island-id order. All offers are snapshotted before any adoption,
		// so the exchange is simultaneous and order-independent.
		if cfg.MigrationEvery > 0 && (it+1)%cfg.MigrationEvery == 0 {
			migrateRing(islands, cfg.MigrationWeight)
		}

		// Serial phase 3: ensemble-best trajectory. Quarantined islands'
		// results achieved before death still count.
		for _, is := range islands {
			if is.bestLen < bestLen {
				bestLen = is.bestLen
				bestTour = is.bestTour
				bestIsland = is.id
			}
		}
		if bestIsland >= 0 {
			report.EnsembleBest = append(report.EnsembleBest, bestLen)
			ensembleG.Set(float64(bestLen))
		} else {
			report.EnsembleBest = append(report.EnsembleBest, 0)
		}
	}

	secs := 0.0
	for _, is := range islands {
		rep := is.rc.Report()
		is.stats.Iterations = is.rc.Iterations()
		is.stats.Seconds = is.rc.Seconds()
		is.stats.Faults, is.stats.Retries, is.stats.Resets = rep.Faults, rep.Retries, rep.Resets
		is.stats.BackoffSeconds = rep.BackoffSeconds
		secs = max(secs, is.stats.Seconds)
		is.stats.State = is.state.String()
		if is.bestLen < math.MaxInt64 {
			is.stats.BestLen = is.bestLen
		}
		report.Islands = append(report.Islands, is.stats)
	}
	report.ActiveIslands = active
	cleanup()
	finishTraces()

	if bestTour == nil {
		return nil, fmt.Errorf("core: island run produced no tour")
	}
	if err := in.ValidTour(bestTour); err != nil {
		return nil, fmt.Errorf("core: island run: %w", err)
	}
	return &IslandsResult{
		BestTour:   append([]int32(nil), bestTour...),
		BestLen:    bestLen,
		BestIsland: bestIsland,
		Seconds:    secs,
		Report:     report,
	}, nil
}

// migrateRing exchanges best tours on the ring of surviving islands: each
// island offers its best-so-far to its successor (in island-id order,
// skipping quarantined islands, so the ring closes over survivors), and
// the receiver adopts the migrant only when it is strictly better,
// depositing it on its trails as a weighted elite ant. Offers are
// snapshotted first, so every island offers its pre-migration best.
func migrateRing(islands []*island, weight float64) {
	var active []*island
	for _, is := range islands {
		if is.state != IslandQuarantined && is.rc.Engine() != nil {
			active = append(active, is)
		}
	}
	if len(active) < 2 {
		return
	}
	type offer struct {
		tour []int32
		l    int64
	}
	offers := make([]offer, len(active))
	for k, is := range active {
		offers[k] = offer{tour: is.bestTour, l: is.bestLen}
	}
	for k := range active {
		recv := active[(k+1)%len(active)]
		off := offers[k]
		if off.tour == nil {
			continue
		}
		if off.l >= recv.bestLen {
			recv.stats.MigrationsRejected++
			recv.migRejC.Inc()
			if recv.lg.Enabled(slog.LevelDebug) {
				recv.lg.Debug(recv.ctx, obslog.EvMigration,
					slog.String("outcome", "rejected"), slog.Int64("offered_len", off.l),
					slog.Int64("best_len", recv.bestLen))
			}
			continue
		}
		e := recv.rc.Engine()
		w := weight
		if w <= 0 {
			w = float64(e.Ants())
		}
		e.AdoptBest(off.tour, off.l)
		e.DepositTour(off.tour, off.l, w)
		recv.bestLen = off.l
		recv.bestTour = append([]int32(nil), off.tour...)
		recv.sinceImprove = 0
		// Re-checkpoint: the adoption mutated pheromone and best state, and
		// a later fault retry must replay from this exact state.
		recv.rc.Checkpoint()
		recv.stats.MigrationsAccepted++
		recv.migAccC.Inc()
		recv.tr.Span("island:migration-accept", 0)
		if recv.lg.Enabled(slog.LevelInfo) {
			recv.lg.Event(recv.ctx, obslog.EvMigration,
				slog.String("outcome", "accepted"), slog.Int64("adopted_len", off.l))
		}
	}
}

// ResetPheromone re-initialises the trail matrix to tau0, the stagnation
// restart of the island runtime (and of MMAS-style re-initialisation). The
// engine's best-so-far and RNG streams are untouched.
func (e *Engine) ResetPheromone() {
	e.pher.Fill(float32(e.tau0))
}

// AdoptBest installs an externally found tour as the engine's best-so-far
// when it improves on it — the receiving half of migration. The tour is
// copied.
func (e *Engine) AdoptBest(tour []int32, l int64) {
	if l >= e.bestLen {
		return
	}
	e.bestLen = l
	e.bestTour = append(e.bestTour[:0], tour...)
}

// DepositTour adds a host-side elite deposit of weight/l on every edge of
// the tour, both directions — how a migrant tour influences the receiving
// island's trails. Host-mediated (no kernel launch): migration happens on
// the host between iterations, exactly like the best-tour readback.
func (e *Engine) DepositTour(tour []int32, l int64, weight float64) {
	if len(tour) == 0 || l <= 0 {
		return
	}
	d := e.pher.Data()
	amt := float32(weight / float64(l))
	for i := 0; i < len(tour); i++ {
		from := tour[i]
		to := tour[(i+1)%len(tour)]
		d[int(from)*e.n+int(to)] += amt
		d[int(to)*e.n+int(from)] += amt
	}
}
