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
		if in.N() <= 500 {
			c.Tour = TourDataParallelTexture
		} else {
			c.Tour = TourNNSharedTexture
		}
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

// island is the runtime state of one colony.
type island struct {
	id      int
	dev     *cuda.Device
	in      *tsp.Instance
	p       aco.Params
	tv      TourVersion
	pv      PherVersion
	rec     RecoveryOptions
	derived *tsp.Derived

	eng *Engine
	cp  *Checkpoint
	tr  *trace.Collector

	// lg/ictx: the run logger and the run context with this island's index
	// folded into the correlation, so every event the island emits carries
	// (request, job, island).
	lg   *obslog.Logger
	ictx context.Context

	state        IslandState
	consecutive  int // consecutive failed attempts at the current iteration
	secs         float64
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

func (is *island) traceFault(name string, secs float64) {
	if is.tr != nil {
		is.tr.Fault(name, secs)
	}
}

// onFault classifies err after a failed attempt, mirroring RunRecovered:
// nil means retry (backoff charged, device reset and engine dropped when
// the context is unusable); non-nil means the island's retry budget is
// exhausted (or err is not a fault) and the caller escalates.
func (is *island) onFault(err error) error {
	if !isFault(err) {
		return err
	}
	is.stats.Faults++
	is.faultC.Inc()
	is.consecutive++
	is.traceFault("fault:"+faultName(err), 0)
	if is.lg.Enabled(slog.LevelInfo) {
		is.lg.Event(obslog.WithAttempt(is.ictx, is.consecutive), obslog.EvFault,
			slog.String("kind", faultName(err)), slog.Int("iter", is.stats.Iterations),
			slog.String("err", err.Error()))
	}
	if is.consecutive > is.rec.MaxConsecutiveFaults {
		return err
	}
	is.stats.Retries++
	backoff := is.rec.BackoffMS * math.Pow(2, float64(is.consecutive-1)) / 1e3
	is.secs += backoff
	is.stats.BackoffSeconds += backoff
	is.traceFault("recovery:backoff", backoff)
	if is.lg.Enabled(slog.LevelInfo) {
		is.lg.Event(obslog.WithAttempt(is.ictx, is.consecutive), obslog.EvRetry,
			slog.Int("iter", is.stats.Iterations), slog.Float64("backoff_s", backoff))
	}
	if errors.Is(err, cuda.ErrECC) || is.dev.Healthy() != nil {
		is.dev.Reset()
		is.stats.Resets++
		is.traceFault("recovery:device-reset", 0)
		if is.lg.Enabled(slog.LevelInfo) {
			is.lg.Event(obslog.WithAttempt(is.ictx, is.consecutive), obslog.EvReset,
				slog.Int("iter", is.stats.Iterations))
		}
		// The reset cleared the device's allocation accounting; the old
		// engine's buffers are stale device state — drop them without Free
		// so the fresh accounting epoch is not corrupted.
		is.eng = nil
	} else if is.eng != nil {
		if is.cp != nil {
			if rerr := is.eng.Restore(is.cp); rerr != nil {
				return rerr
			}
		} else {
			// Fault before the first completed iteration: rebuild from
			// scratch (the initial state is deterministic).
			is.eng.Free()
			is.eng = nil
		}
	}
	return nil
}

// step runs one colony iteration to completion, retrying through faults
// until it succeeds or the island's retry budget is exhausted. It is the
// only island code that runs concurrently with other islands, and it
// touches nothing outside the island's own state.
func (is *island) step(ctx context.Context) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if is.eng == nil {
			e, err := NewEngineWithOptions(is.dev, is.in, is.p, EngineOptions{Derived: is.derived})
			if err != nil {
				if fatal := is.onFault(err); fatal != nil {
					return fatal
				}
				continue
			}
			if is.tr != nil {
				e.SetTracer(is.tr)
			}
			is.eng = e
			if is.cp != nil {
				is.traceFault("recovery:replay", 0)
				if err := e.Restore(is.cp); err != nil {
					return err
				}
			}
		}
		res, err := is.eng.Iterate(is.tv, is.pv)
		if err != nil {
			if fatal := is.onFault(err); fatal != nil {
				return fatal
			}
			continue
		}
		is.consecutive = 0
		is.secs += res.Construct.Seconds() + res.Update.Seconds()
		is.stats.Iterations++
		if _, best := is.eng.Best(); best < is.bestLen {
			is.bestLen = best
			tour, _ := is.eng.Best()
			is.bestTour = append([]int32(nil), tour...)
			is.sinceImprove = 0
		} else {
			is.sinceImprove++
		}
		if is.stagnate > 0 && is.sinceImprove >= is.stagnate {
			// Stagnation restart: re-initialise the trails to tau0 and let
			// construction re-diversify; the island keeps its best-so-far
			// and its RNG streams keep advancing.
			is.eng.ResetPheromone()
			is.sinceImprove = 0
			is.stats.Restarts++
			is.restartC.Inc()
			if is.tr != nil {
				is.tr.Span("island:restart", 0)
			}
			if is.lg.Enabled(slog.LevelInfo) {
				is.lg.Event(is.ictx, obslog.EvRestart,
					slog.Int("iter", is.stats.Iterations), slog.Int64("best_len", is.bestLen))
			}
		}
		is.cp = is.eng.Checkpoint()
		return nil
	}
}

// dispose drops the island's engine around a quarantine or respawn. The
// device is Reset first (its context may be poisoned and its accounting
// polluted by the dead engine), so the buffers are stale device state and
// are dropped without Free.
func (is *island) dispose() {
	is.dev.Reset()
	is.eng = nil
}

// RunIslands runs one colony per device with periodic ring migration,
// stagnation restarts and per-island fault recovery, surviving the
// permanent loss of islands down to cfg.MinIslands. Each device should be
// an independent clone (cuda.Device.Clone or cuda.NewDevicePool) carrying
// its own FaultPlan; devices are mutated by the run and must not be shared.
//
// The returned result carries the ensemble-best tour and an IslandReport
// of per-island faults, restarts, migrations and quarantines. Errors other
// than device faults (bad parameters, cancellation) abort the whole run.
func RunIslands(ctx context.Context, devices []*cuda.Device, in *tsp.Instance, p aco.Params, cfg IslandConfig) (*IslandsResult, error) {
	if len(devices) == 0 {
		return nil, fmt.Errorf("core: RunIslands needs at least one device")
	}
	if err := p.Validate(in.N()); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(in)
	n := len(devices)
	pool := cuda.PoolOf(devices)

	// The instance-derived data (float32 distances, NN lists, C^nn) is
	// identical across islands; compute it once and share it read-only.
	derived, err := in.ComputeDerived(p.NN)
	if err != nil {
		return nil, err
	}

	islands := make([]*island, n)
	for i := range islands {
		ip := IslandParams(p, i, cfg.Jitter)
		is := &island{
			id:       i,
			dev:      pool.Get(i),
			in:       in,
			p:        ip,
			tv:       cfg.Tour,
			pv:       cfg.Pher,
			rec:      cfg.Recovery,
			derived:  derived,
			bestLen:  math.MaxInt64,
			stagnate: cfg.StagnationIters,
		}
		if cfg.Tracer != nil {
			is.tr = trace.NewCollector()
			is.tr.Begin(fmt.Sprintf("island-%d", i))
		}
		if cfg.Logger != nil {
			is.lg = cfg.Logger
			is.ictx = obslog.WithIsland(ctx, i)
		}
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
			if is.eng != nil {
				is.eng.Free()
				is.eng = nil
			}
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
				errs[is.id] = is.step(ctx)
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
			is.dispose()
			if cfg.Respawn && is.stats.Respawns < cfg.MaxRespawns {
				// Respawn: a fresh, healthy device (no fault plan — the
				// replacement board is presumed good) takes the slot; the
				// island resumes from its last checkpoint next iteration.
				is.dev = pool.Respawn(is.id, false)
				is.consecutive = 0
				is.stats.Respawns++
				is.state = IslandRespawned
				is.respawnC.Inc()
				is.stateG.Set(float64(IslandRespawned))
				is.traceFault("island:respawn", 0)
				if is.lg.Enabled(slog.LevelInfo) {
					is.lg.Event(is.ictx, obslog.EvRespawn,
						slog.Int("fleet_iter", it+1), slog.Int("respawns", is.stats.Respawns))
				}
			} else {
				is.state = IslandQuarantined
				is.stats.Quarantined = true
				is.stats.QuarantineIteration = it + 1
				is.quarC.Inc()
				is.stateG.Set(float64(IslandQuarantined))
				is.traceFault("island:quarantine", 0)
				active--
				activeG.Set(float64(active))
				if is.lg.Enabled(slog.LevelInfo) {
					is.lg.Event(is.ictx, obslog.EvQuarantine,
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
		if is.secs > secs {
			secs = is.secs
		}
		is.stats.Seconds = is.secs
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
		if is.state != IslandQuarantined && is.eng != nil {
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
				recv.lg.Debug(recv.ictx, obslog.EvMigration,
					slog.String("outcome", "rejected"), slog.Int64("offered_len", off.l),
					slog.Int64("best_len", recv.bestLen))
			}
			continue
		}
		w := weight
		if w <= 0 {
			w = float64(recv.eng.Ants())
		}
		recv.eng.AdoptBest(off.tour, off.l)
		recv.eng.DepositTour(off.tour, off.l, w)
		recv.bestLen = off.l
		recv.bestTour = append([]int32(nil), off.tour...)
		recv.sinceImprove = 0
		// Re-checkpoint: the adoption mutated pheromone and best state, and
		// a later fault retry must replay from this exact state.
		recv.cp = recv.eng.Checkpoint()
		recv.stats.MigrationsAccepted++
		recv.migAccC.Inc()
		if recv.tr != nil {
			recv.tr.Span("island:migration-accept", 0)
		}
		if recv.lg.Enabled(slog.LevelInfo) {
			recv.lg.Event(recv.ictx, obslog.EvMigration,
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
