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

// RunRecovered executes iters Ant System iterations on the device with
// checkpoint/retry/failover fault tolerance and returns the best tour, its
// length, the simulated seconds (kernel time plus backoff), and a report of
// the recovery activity. With no faults injected it runs the same
// iterations, with the same results, as an uninterrupted Engine.Iterate
// loop, plus a per-iteration checkpoint copy. conv, when non-nil, receives
// the convergence metrics of every committed iteration, from whichever
// engine committed it, so recording survives device resets and the CPU
// failover. lg, when non-nil, receives one structured event per fault,
// retry, reset, failover and (at debug level) checkpoint, keyed by ctx's
// correlation.
func RunRecovered(ctx context.Context, dev *cuda.Device, in *tsp.Instance, p aco.Params,
	tv TourVersion, pv PherVersion, iters int, opts RecoveryOptions,
	tr *trace.Collector, conv *metrics.Convergence, lg *obslog.Logger) ([]int32, int64, float64, *RecoveryReport, error) {

	opts = opts.withDefaults()
	rep := &RecoveryReport{}
	secs := 0.0
	consecutive := 0

	traceFault := func(name string, d float64) {
		if tr != nil {
			tr.Fault(name, d)
		}
	}

	// onFault classifies err after a failed attempt: it returns nil when
	// the runtime should retry (backoff charged, device reset if needed),
	// an error when the fault budget is exhausted or err is not a fault.
	// needRebuild reports whether the engine must be reconstructed.
	onFault := func(done int, err error) (needRebuild bool, fatal error) {
		if !isFault(err) {
			return false, err
		}
		rep.Faults++
		consecutive++
		traceFault("fault:"+faultName(err), 0)
		if lg.Enabled(slog.LevelInfo) {
			lg.Event(obslog.WithAttempt(ctx, consecutive), obslog.EvFault,
				slog.String("kind", faultName(err)), slog.Int("iter", done),
				slog.String("err", err.Error()))
		}
		if consecutive > opts.MaxConsecutiveFaults {
			return false, err
		}
		rep.Retries++
		backoff := opts.BackoffMS * math.Pow(2, float64(consecutive-1)) / 1e3
		secs += backoff
		rep.BackoffSeconds += backoff
		traceFault("recovery:backoff", backoff)
		if lg.Enabled(slog.LevelInfo) {
			lg.Event(obslog.WithAttempt(ctx, consecutive), obslog.EvRetry,
				slog.Int("iter", done), slog.Float64("backoff_s", backoff))
		}
		// ECC may have corrupted buffers that are never rewritten (dist,
		// nnList), and a sticky fault poisons the context: both need a
		// reset and a rebuilt engine. Launch and watchdog faults only
		// touched per-iteration buffers; the in-place restore suffices.
		if errors.Is(err, cuda.ErrECC) || dev.Healthy() != nil {
			dev.Reset()
			rep.Resets++
			traceFault("recovery:device-reset", 0)
			if lg.Enabled(slog.LevelInfo) {
				lg.Event(obslog.WithAttempt(ctx, consecutive), obslog.EvReset,
					slog.Int("iter", done))
			}
			return true, nil
		}
		return false, nil
	}

	build := func() (*Engine, error) {
		e, err := NewEngine(dev, in, p)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			e.SetTracer(tr)
		}
		return e, nil
	}

	var e *Engine
	var cp *Checkpoint
	done := 0 // iterations completed
	for done < iters {
		if err := ctx.Err(); err != nil {
			if e != nil {
				e.Free()
			}
			return nil, 0, 0, rep, err
		}
		if e == nil {
			var err error
			if e, err = build(); err != nil {
				rebuild, fatal := onFault(done, err)
				if fatal != nil {
					if opts.DisableFailover || !isFault(err) {
						return nil, 0, 0, rep, fatal
					}
					return failoverCPU(ctx, in, p, cp, iters, done, secs, rep, tr, conv, lg)
				}
				_ = rebuild // already have no engine
				continue
			}
			if cp != nil {
				traceFault("recovery:replay", 0)
				if err := e.Restore(cp); err != nil {
					e.Free()
					return nil, 0, 0, rep, err
				}
			}
		}
		res, err := e.Iterate(tv, pv)
		if err == nil {
			e.RecordConvergence(conv)
			done++
			consecutive = 0
			secs += res.Construct.Seconds() + res.Update.Seconds()
			cp = e.Checkpoint()
			if lg.Enabled(slog.LevelDebug) {
				lg.Debug(ctx, obslog.EvCheckpoint, slog.Int("iter", done),
					slog.Int64("best_len", cp.BestLen))
			}
			continue
		}
		rebuild, fatal := onFault(done, err)
		if fatal != nil {
			if opts.DisableFailover || !isFault(err) {
				e.Free()
				return nil, 0, 0, rep, fatal
			}
			e.Free()
			return failoverCPU(ctx, in, p, cp, iters, done, secs, rep, tr, conv, lg)
		}
		if rebuild {
			// The reset cleared the device's allocation accounting; the old
			// engine's buffers are stale device state — drop them without
			// Free so the fresh accounting epoch is not corrupted.
			e = nil
		} else if cp != nil {
			if err := e.Restore(cp); err != nil {
				e.Free()
				return nil, 0, 0, rep, err
			}
		} else {
			// Fault before the first completed iteration and no snapshot
			// yet: rebuild from scratch (initial state is deterministic).
			e.Free()
			e = nil
		}
	}

	tour, l := e.Best()
	if tour == nil {
		e.Free()
		return nil, 0, 0, rep, fmt.Errorf("core: recovered run produced no tour")
	}
	if err := in.ValidTour(tour); err != nil {
		e.Free()
		return nil, 0, 0, rep, fmt.Errorf("core: recovered run: %w", err)
	}
	e.Free()
	return tour, l, secs, rep, nil
}

// failoverCPU finishes the remaining iterations on the sequential CPU
// colony, seeded from the last checkpoint's pheromone state and best tour.
// The CPU colony uses float64 trails and its own RNG streams, so the result
// diverges from the fault-free GPU run — graceful degradation trades the
// determinism guarantee for completing the solve at all.
func failoverCPU(ctx context.Context, in *tsp.Instance, p aco.Params, cp *Checkpoint,
	iters, done int, secs float64, rep *RecoveryReport,
	tr *trace.Collector, conv *metrics.Convergence, lg *obslog.Logger) ([]int32, int64, float64, *RecoveryReport, error) {

	rep.Degraded = true
	rep.FailoverIteration = done
	if tr != nil {
		tr.Fault("recovery:failover-cpu", 0)
	}
	if lg.Enabled(slog.LevelInfo) {
		lg.Event(ctx, obslog.EvFailover, slog.Int("gpu_iters", done),
			slog.Int("remaining", iters-done))
	}
	c, err := aco.New(in, p)
	if err != nil {
		return nil, 0, 0, rep, err
	}
	c.Tracer = tr
	if cp != nil {
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
	for ; done < iters; done++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, 0, rep, err
		}
		c.Iterate(aco.NNListConstruction)
		c.RecordConvergence(conv)
	}
	tour, l := c.BestTour, c.BestLen
	if tour == nil {
		return nil, 0, 0, rep, fmt.Errorf("core: CPU failover produced no tour")
	}
	if err := in.ValidTour(tour); err != nil {
		return nil, 0, 0, rep, fmt.Errorf("core: CPU failover: %w", err)
	}
	cpu := aco.DefaultCPU()
	secs += cpu.Seconds(&c.ConstructMeter) + cpu.Seconds(&c.PheromoneMeter) +
		cpu.Seconds(&c.ChoiceMeter)
	return tour, l, secs, rep, nil
}
