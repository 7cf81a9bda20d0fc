package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"

	"antgpu/internal/aco"
	"antgpu/internal/cuda"
	"antgpu/internal/metrics"
	"antgpu/internal/obslog"
	"antgpu/internal/trace"
	"antgpu/internal/tsp"
)

// Fault-tolerant solver runtime. The GPU engines are pure functions of
// their device state: one iteration is fully determined by the pheromone
// matrix, the library RNG states, the iteration counter and the seed
// (tours, lengths, randoms, tabu and choice are all regenerated from them
// every iteration). That makes checkpoint/replay exact — re-running an
// iteration from a checkpoint reproduces the fault-free run bit for bit —
// so a solve that survives injected faults returns the identical BestTour
// and BestLen the fault-free solve returns.
//
// The runtime layers three responses, cheapest first:
//
//  1. retry: launch and watchdog faults leave device buffers that the next
//     iteration rewrites anyway; restore the checkpoint in place, charge an
//     exponential backoff to the simulated clock, and re-run the iteration.
//  2. reset-and-replay: ECC faults may corrupt buffers that are never
//     rewritten (distances, NN lists), and sticky faults poison the whole
//     context. Device.Reset, rebuild the engine, restore the checkpoint.
//  3. degrade: after MaxConsecutiveFaults failed attempts at the same
//     iteration, hand the checkpointed pheromone state to the sequential
//     CPU colony and finish there — slower, but the solve completes.
//
// Every fault, backoff, reset and failover is recorded as a span on the
// trace timeline (category "fault").

// Checkpoint is a host-side snapshot of the functional solver state at an
// iteration boundary: everything a fresh engine needs to reproduce the
// remaining iterations exactly.
type Checkpoint struct {
	Iteration uint64    // iterations completed
	Pher      []float32 // n*n pheromone matrix
	LibRNG    []uint64  // library RNG states, one block per ant
	BestTour  []int32   // best-so-far tour (nil before the first ReadBest)
	BestLen   int64
}

// Checkpoint snapshots the engine's functional state. Call it only at
// iteration boundaries (after Iterate returns).
func (e *Engine) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		Iteration: e.iteration,
		Pher:      append([]float32(nil), e.pher.Data()...),
		LibRNG:    append([]uint64(nil), e.libRNG.Data()...),
		BestLen:   e.bestLen,
	}
	if e.bestTour != nil {
		cp.BestTour = append([]int32(nil), e.bestTour...)
	}
	return cp
}

// Restore overwrites the engine's functional state with the checkpoint.
// The next Iterate then reproduces the iteration that followed the
// snapshot exactly: choice, tours, lengths, randoms and tabu are all
// regenerated from the restored pheromone, RNG states and counter.
func (e *Engine) Restore(cp *Checkpoint) error {
	if len(cp.Pher) != e.pher.Len() || len(cp.LibRNG) != e.libRNG.Len() {
		return fmt.Errorf("core: checkpoint shape %dx%d does not fit engine %dx%d",
			len(cp.Pher), len(cp.LibRNG), e.pher.Len(), e.libRNG.Len())
	}
	copy(e.pher.Data(), cp.Pher)
	copy(e.libRNG.Data(), cp.LibRNG)
	e.iteration = cp.Iteration
	e.bestLen = cp.BestLen
	e.bestTour = nil
	if cp.BestTour != nil {
		e.bestTour = append([]int32(nil), cp.BestTour...)
	}
	return nil
}

// RecoveryOptions tune the fault-tolerant runtime.
type RecoveryOptions struct {
	// MaxConsecutiveFaults is the number of consecutive failed attempts
	// (at one iteration, or at engine construction) after which the runtime
	// degrades to the CPU colony. Default 8.
	MaxConsecutiveFaults int
	// BackoffMS is the initial retry backoff charged to the simulated
	// clock; it doubles per consecutive fault. Default 5 ms.
	BackoffMS float64
	// DisableFailover makes the runtime return the last fault instead of
	// degrading to the CPU colony.
	DisableFailover bool
}

func (o RecoveryOptions) withDefaults() RecoveryOptions {
	if o.MaxConsecutiveFaults <= 0 {
		o.MaxConsecutiveFaults = 8
	}
	if o.BackoffMS <= 0 {
		o.BackoffMS = 5
	}
	return o
}

// RecoveryReport records what the fault-tolerant runtime did during a
// solve.
type RecoveryReport struct {
	Faults         int     // faults observed (injected or genuine)
	Retries        int     // iteration or build attempts repeated
	Resets         int     // device resets (ECC or sticky faults)
	BackoffSeconds float64 // simulated time charged to retry backoff
	Degraded       bool    // finished on the CPU colony
	// FailoverIteration is the number of GPU iterations completed before
	// degradation (meaningful when Degraded).
	FailoverIteration int
}

func (r *RecoveryReport) String() string {
	if r == nil {
		return "recovery: no faults"
	}
	s := fmt.Sprintf("recovery: %d faults, %d retries, %d resets, %.1f ms backoff",
		r.Faults, r.Retries, r.Resets, r.BackoffSeconds*1e3)
	if r.Degraded {
		s += fmt.Sprintf(", degraded to CPU after %d GPU iterations", r.FailoverIteration)
	}
	return s
}

// isFault reports whether err is a device fault the runtime should retry,
// as opposed to a programming or validation error it must surface.
func isFault(err error) bool {
	return errors.Is(err, cuda.ErrLaunchFailed) || errors.Is(err, cuda.ErrOOM) ||
		errors.Is(err, cuda.ErrWatchdog) || errors.Is(err, cuda.ErrECC)
}

// faultName returns the short span label of a fault error.
func faultName(err error) string {
	switch {
	case errors.Is(err, cuda.ErrLaunchFailed):
		return "launch"
	case errors.Is(err, cuda.ErrWatchdog):
		return "watchdog"
	case errors.Is(err, cuda.ErrECC):
		return "ecc"
	case errors.Is(err, cuda.ErrOOM):
		return "oom"
	default:
		return "unknown"
	}
}

// Recoverer runs the GPU Ant System one committed iteration at a time
// through the three responses above. It builds the engine on its device
// (from the shared derived data when given one), checkpoints every
// committed iteration, charges kernel time and retry backoff to its
// simulated clock and counts the ladder's activity in a RecoveryReport.
// The facade's fault-tolerant solve steps one Recoverer; RunIslands steps
// one per island and replaces the failover with quarantine and respawn.
type Recoverer struct {
	dev   *cuda.Device
	in    *tsp.Instance
	p     aco.Params
	d     *tsp.Derived
	tv    TourVersion
	pv    PherVersion
	iters int // the solve's iteration budget, reported by the failover event
	opts  RecoveryOptions
	tr    *trace.Collector
	lg    *obslog.Logger

	eng         *Engine
	cp          *Checkpoint
	cpu         *aco.Colony // the failover colony, once degraded
	consecutive int         // consecutive failed attempts at the next iteration
	done        int         // committed iterations
	secs        float64
	rep         RecoveryReport
}

// NewRecoverer returns a Recoverer for an iters-iteration solve of in on
// dev. The engine is built by the first Step. d, when non-nil, is the
// instance's shared derived data; tr and lg, when non-nil, receive the
// kernels, spans and fault events.
func NewRecoverer(dev *cuda.Device, in *tsp.Instance, p aco.Params, d *tsp.Derived,
	tv TourVersion, pv PherVersion, iters int, opts RecoveryOptions,
	tr *trace.Collector, lg *obslog.Logger) *Recoverer {
	return &Recoverer{dev: dev, in: in, p: p, d: d, tv: tv, pv: pv, iters: iters,
		opts: opts.withDefaults(), tr: tr, lg: lg}
}

// Step runs the next iteration to completion and checkpoints it. A fault
// past the retry budget degrades the solve to the CPU colony, which runs
// the iteration and every later one, or, with DisableFailover, returns as
// the error. Errors that are not faults, cancellation among them, return
// at once. Events carry ctx's correlation.
func (r *Recoverer) Step(ctx context.Context) error {
	if r.cpu != nil {
		r.cpu.Iterate(aco.NNListConstruction)
		return nil
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := r.attempt()
		if err == nil {
			r.consecutive = 0
			r.done++
			r.cp = r.eng.Checkpoint()
			return nil
		}
		if err = r.onFault(ctx, err); err != nil {
			if r.opts.DisableFailover || !isFault(err) {
				return err
			}
			return r.failover(ctx)
		}
	}
}

// attempt tries the next iteration once, first building the engine and
// replaying the checkpoint onto it when there is no engine.
func (r *Recoverer) attempt() error {
	if r.eng == nil {
		e, err := NewEngineWithOptions(r.dev, r.in, r.p, EngineOptions{Derived: r.d})
		if err != nil {
			return err
		}
		e.SetTracer(r.tr)
		r.eng = e
		if r.cp != nil {
			r.tr.Fault("recovery:replay", 0)
			if err := e.Restore(r.cp); err != nil {
				return err
			}
		}
	}
	res, err := r.eng.Iterate(r.tv, r.pv)
	if err != nil {
		return err
	}
	r.secs += res.Seconds()
	return nil
}

// onFault counts a failed attempt and readies the retry: it charges the
// backoff, then either resets the device and drops the engine or restores
// the checkpoint in place. It returns err itself when err is not a fault
// or the retry budget is spent.
func (r *Recoverer) onFault(ctx context.Context, err error) error {
	if !isFault(err) {
		return err
	}
	r.rep.Faults++
	r.consecutive++
	r.tr.Fault("fault:"+faultName(err), 0)
	if r.lg.Enabled(slog.LevelInfo) {
		r.lg.Event(obslog.WithAttempt(ctx, r.consecutive), obslog.EvFault,
			slog.String("kind", faultName(err)), slog.Int("iter", r.done),
			slog.String("err", err.Error()))
	}
	if r.consecutive > r.opts.MaxConsecutiveFaults {
		return err
	}
	r.rep.Retries++
	backoff := r.opts.BackoffMS * math.Pow(2, float64(r.consecutive-1)) / 1e3
	r.secs += backoff
	r.rep.BackoffSeconds += backoff
	r.tr.Fault("recovery:backoff", backoff)
	if r.lg.Enabled(slog.LevelInfo) {
		r.lg.Event(obslog.WithAttempt(ctx, r.consecutive), obslog.EvRetry,
			slog.Int("iter", r.done), slog.Float64("backoff_s", backoff))
	}
	switch {
	case errors.Is(err, cuda.ErrECC) || r.dev.Healthy() != nil:
		// ECC may have corrupted buffers that are never rewritten (dist,
		// nnList), and a sticky fault poisons the context: both need a
		// reset and a rebuilt engine. The reset cleared the device's
		// allocation accounting, so the old engine's buffers are stale
		// device state, dropped without Free.
		r.dev.Reset()
		r.eng = nil
		r.rep.Resets++
		r.tr.Fault("recovery:device-reset", 0)
		if r.lg.Enabled(slog.LevelInfo) {
			r.lg.Event(obslog.WithAttempt(ctx, r.consecutive), obslog.EvReset,
				slog.Int("iter", r.done))
		}
	case r.eng == nil:
	case r.cp != nil:
		// Launch and watchdog faults only touched per-iteration buffers.
		return r.eng.Restore(r.cp)
	default:
		// Fault before the first committed iteration: rebuild from scratch
		// (the initial state is deterministic).
		r.eng.Free()
		r.eng = nil
	}
	return nil
}

// failover hands the last checkpoint's pheromone state and best tour to
// the sequential CPU colony and runs the pending iteration there. The CPU
// colony uses float64 trails and its own RNG streams, so the result
// diverges from the fault-free GPU run — graceful degradation trades the
// determinism guarantee for completing the solve at all.
func (r *Recoverer) failover(ctx context.Context) error {
	if r.eng != nil {
		r.eng.Free()
		r.eng = nil
	}
	r.rep.Degraded = true
	r.rep.FailoverIteration = r.done
	r.tr.Fault("recovery:failover-cpu", 0)
	if r.lg.Enabled(slog.LevelInfo) {
		r.lg.Event(ctx, obslog.EvFailover, slog.Int("gpu_iters", r.done),
			slog.Int("remaining", r.iters-r.done))
	}
	c, err := aco.NewWithDerived(r.in, r.p, r.d)
	if err != nil {
		return err
	}
	c.Tracer = r.tr
	if cp := r.cp; cp != nil {
		for i, v := range cp.Pher {
			c.Pher[i] = float64(v)
		}
		c.ComputeChoiceInfo()
		if cp.BestTour != nil {
			c.BestTour = append([]int32(nil), cp.BestTour...)
			c.BestLen = cp.BestLen
		}
	}
	c.ResetMeters()
	r.cpu = c
	return r.Step(ctx)
}

// Engine returns the GPU engine of the last committed iteration, or nil
// when a reset or a lost device dropped it (and after a failover).
func (r *Recoverer) Engine() *Engine { return r.eng }

// Checkpoint re-snapshots the committed state after a host-side change
// to it (a trail restart, an adopted migrant), so a later retry replays
// from the changed state.
func (r *Recoverer) Checkpoint() { r.cp = r.eng.Checkpoint() }

// Abandon gives up the device after it was lost: it resets the device
// and drops the engine without Free, since the context may be poisoned
// and its accounting polluted by the dead engine. A non-nil dev takes the
// device's place with a fresh retry budget; the next Step rebuilds there
// and replays the last checkpoint.
func (r *Recoverer) Abandon(dev *cuda.Device) {
	r.dev.Reset()
	r.eng, r.consecutive = nil, 0
	if dev != nil {
		r.dev = dev
	}
}

// Best returns the best-so-far tour and length.
func (r *Recoverer) Best() ([]int32, int64) {
	if r.cpu != nil {
		return r.cpu.BestTour, r.cpu.BestLen
	}
	return r.eng.Best()
}

// Iterations returns the number of committed GPU iterations.
func (r *Recoverer) Iterations() int { return r.done }

// Seconds returns the simulated seconds so far: kernel time and retry
// backoff, plus the CPU model's time for the iterations after a failover.
func (r *Recoverer) Seconds() float64 {
	if r.cpu == nil {
		return r.secs
	}
	cpu := aco.DefaultCPU()
	return r.secs + (cpu.Seconds(&r.cpu.ConstructMeter) + cpu.Seconds(&r.cpu.PheromoneMeter) +
		cpu.Seconds(&r.cpu.ChoiceMeter))
}

// Report returns the ladder's activity so far.
func (r *Recoverer) Report() *RecoveryReport { return &r.rep }

// Record publishes the last committed iteration to conv, from whichever
// engine committed it, and logs its checkpoint at debug level. The solve
// loop calls it after every Step.
func (r *Recoverer) Record(ctx context.Context, conv *metrics.Convergence) {
	if r.cpu != nil {
		r.cpu.RecordConvergence(conv)
		return
	}
	r.eng.RecordConvergence(conv)
	if r.lg.Enabled(slog.LevelDebug) {
		r.lg.Debug(ctx, obslog.EvCheckpoint, slog.Int("iter", r.done),
			slog.Int64("best_len", r.cp.BestLen))
	}
}

// Close frees the engine's device buffers.
func (r *Recoverer) Close() {
	if r.eng != nil {
		r.eng.Free()
	}
}
