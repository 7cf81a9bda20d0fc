package cuda

import (
	"fmt"
	"runtime"
	"sync"
)

// LaunchResult reports the outcome of a simulated kernel launch: the scaled
// whole-launch meters, the occupancy achieved, the sampling stride actually
// used, and the estimated kernel time on the device.
type LaunchResult struct {
	Name      string
	Meter     Meter
	Occupancy Occupancy
	Stride    int     // 1 when every block was executed
	Seconds   float64 // simulated kernel time
	Breakdown TimeBreakdown
}

// Millis returns the simulated kernel time in milliseconds, the unit the
// paper's tables use.
func (r *LaunchResult) Millis() float64 { return r.Seconds * 1e3 }

func (r *LaunchResult) String() string {
	return fmt.Sprintf("%s: %.4f ms (stride %d, %s)", r.Name, r.Millis(), r.Stride, &r.Meter)
}

// LaunchObserver receives every completed launch on a device. Observers see
// the launch in issue order on the device's simulated stream, so a
// trace.Collector can lay the kernels out on a simulated timeline.
type LaunchObserver interface {
	ObserveLaunch(cfg *LaunchConfig, res *LaunchResult)
}

// workerAccum collects one worker goroutine's meters and atomic histogram —
// per address, how many atomic operations touched it and how many distinct
// executed blocks they came from. The block count lets sampled launches
// distinguish block-shared addresses (whose distinct count must NOT scale
// with the stride) from block-private ones (whose count must). Workers never
// share accumulators, so block results merge in worker-index order after the
// launch — float64 sums are then bit-reproducible run to run (summing under
// a mutex in goroutine-scheduling order is not).
type workerAccum struct {
	meter Meter
	addrs *statTable
}

// Launch executes a kernel over the grid described by cfg on the simulated
// device and returns the metered result. Blocks run functionally; when
// cfg requests sampling, only every stride-th block executes and the meters
// are scaled to the full grid.
func Launch(dev *Device, cfg LaunchConfig, name string, k Kernel) (*LaunchResult, error) {
	if err := cfg.Validate(dev); err != nil {
		return nil, err
	}
	if err := dev.Healthy(); err != nil {
		return nil, fmt.Errorf("cuda: launch %s: device context corrupt: %w", name, err)
	}
	var kind FaultKind
	var sticky bool
	if p := dev.Faults; p != nil {
		kind, sticky = p.drawLaunch()
		if kind == FaultLaunch {
			err := fmt.Errorf("cuda: launch %s: injected failure: %w", name, ErrLaunchFailed)
			dev.poison(sticky, err)
			return nil, err
		}
	}
	blocks := cfg.Blocks()
	stride := chooseStride(&cfg)

	executed := 0
	for i := 0; i < blocks; i += stride {
		executed++
	}

	workers := runtime.NumCPU()
	if cfg.SerialBlocks {
		workers = 1
	}
	if workers > executed {
		workers = executed
	}
	if workers < 1 {
		workers = 1
	}

	acc := make([]workerAccum, workers)
	runRange := func(w int) error {
		a := &acc[w]
		a.addrs = getStatTable()
		blk := getBlock(dev, &cfg)
		defer putBlock(blk)
		blk.stats = a.addrs
		for i := w * stride; i < blocks; i += stride * workers {
			blk.reset(i)
			if err := runBlock(blk, k); err != nil {
				return err
			}
			a.meter.Add(blk.meter)
		}
		return nil
	}

	var err error
	if workers == 1 {
		err = runRange(0)
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				errs[w] = runRange(w)
			}(w)
		}
		wg.Wait()
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}

	// Merge in worker-index order: float64 addition is not associative, so
	// a deterministic merge order is what makes whole-launch meters
	// bit-identical across runs of the same seed.
	total := Meter{}
	addrs := acc[0].addrs
	total.Add(&acc[0].meter)
	for w := 1; w < len(acc); w++ {
		total.Add(&acc[w].meter)
		acc[w].addrs.each(func(addr uint64, ops int64, blks int32) {
			addrs.add(addr, ops, blks)
		})
	}

	if executed < blocks {
		total.Scale(float64(blocks) / float64(executed))
	}
	applyCrossBlockAtomics(&total, addrs, float64(blocks)/float64(executed))
	for w := range acc {
		putStatTable(acc[w].addrs)
	}
	total.BlocksLaunched = int64(blocks)
	total.BlocksExecuted = int64(executed)

	res := &LaunchResult{
		Name:      name,
		Meter:     total,
		Occupancy: dev.OccupancyOf(&cfg),
		Stride:    stride,
	}
	res.Seconds, res.Breakdown = EstimateTime(dev, &cfg, &total)

	// Post-run faults: the kernel already executed functionally, so its
	// writes remain in device buffers (exactly the hazard a real watchdog
	// kill or ECC event leaves behind); the caller must treat the device
	// state as suspect and recover from a checkpoint.
	if p := dev.Faults; p != nil {
		switch {
		case kind == FaultECC:
			detail := dev.flipECCBit(p)
			err := fmt.Errorf("cuda: launch %s: %s: %w", name, detail, ErrECC)
			dev.poison(sticky, err)
			return nil, err
		case kind == FaultWatchdog:
			err := fmt.Errorf("cuda: launch %s: injected kill after %.3f ms: %w",
				name, res.Millis(), ErrWatchdog)
			dev.poison(sticky, err)
			return nil, err
		case p.WatchdogMS > 0 && res.Millis() > p.WatchdogMS:
			// Deterministic budget overrun: not an injection draw, so it
			// recurs on every retry — the failover path, not the retry path.
			return nil, fmt.Errorf("cuda: launch %s: ran %.3f ms, watchdog budget %.3f ms: %w",
				name, res.Millis(), p.WatchdogMS, ErrWatchdog)
		}
	}
	if dev.Observer != nil {
		dev.Observer.ObserveLaunch(&cfg, res)
	}
	if dev.Metrics != nil {
		dev.Metrics.ObserveLaunch(&cfg, res)
	}
	if dev.Log != nil {
		dev.Log.ObserveLaunch(&cfg, res)
	}
	return res, nil
}

// applyCrossBlockAtomics folds the cross-block atomic histogram into the
// scaled meters. Per address with multiplicity k, k-1 operations serialise
// at the memory partition; the per-warp retirement already counted
// intra-warp conflicts and the histogram subsumes them, so the larger of
// the two views is kept rather than double-charging.
//
// Under block sampling (factor f = launched/executed blocks) the histogram
// covers only the executed stratum, and distinct-address counts are not
// linear in blocks. Addresses touched by two or more sampled blocks are
// block-shared: unsampled blocks hit the same addresses, so the distinct
// count stays and only the operation multiplicity extrapolates. Addresses
// touched by exactly one sampled block are block-private: unsampled blocks
// bring their own addresses, so the distinct count extrapolates and each
// address keeps its per-block multiplicity. The sums accumulate in integer
// arithmetic, so map iteration order cannot perturb the result.
func applyCrossBlockAtomics(total *Meter, addrs *statTable, f float64) {
	var sharedOps, sharedCnt, privExtra, privCnt int64
	addrs.each(func(_ uint64, ops int64, blocks int32) {
		if blocks > 1 {
			sharedOps += ops
			sharedCnt++
		} else {
			privExtra += ops - 1
			privCnt++
		}
	})
	// Shared addresses: estimated ops per address scale by f, minus the one
	// non-serialised op each (f >= 1 and ops >= 2 keep every term positive).
	crossExtra := f*float64(sharedOps) - float64(sharedCnt) + f*float64(privExtra)
	if crossExtra > total.AtomicSerialExtra {
		total.AtomicSerialExtra = crossExtra
	}
	total.AtomicDistinctAddr = sharedCnt + int64(float64(privCnt)*f+0.5)
}

// kernelFailure wraps an error raised from inside a kernel via Block.Failf
// so runBlock can distinguish a deliberate kernel error (returned verbatim)
// from an accidental panic (wrapped with block diagnostics).
type kernelFailure struct{ err error }

// runBlock executes one block, converting kernel panics into errors so a
// broken kernel fails the launch rather than the process.
func runBlock(b *Block, k Kernel) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if kf, ok := r.(kernelFailure); ok {
				err = kf.err
				return
			}
			err = fmt.Errorf("cuda: kernel fault in block %d: %v", b.linear, r)
		}
	}()
	k(b)
	// Structural warp count: the latency model divides per-warp work by
	// the number of warps resident over the launch, counted once per block.
	b.meter.WarpsExecuted += int64(b.warps)
	return nil
}

// chooseStride resolves the sampling stride of a launch.
func chooseStride(cfg *LaunchConfig) int {
	blocks := cfg.Blocks()
	stride := cfg.SampleStride
	if stride == 0 && cfg.SampleBudget > 0 {
		per := cfg.LaneOpsPerBlockHint
		if per <= 0 {
			per = int64(cfg.Threads())
		}
		totalOps := per * int64(blocks)
		if totalOps > cfg.SampleBudget {
			stride = int((totalOps + cfg.SampleBudget - 1) / cfg.SampleBudget)
		}
	}
	if stride < 1 {
		stride = 1
	}
	if stride > blocks {
		stride = blocks
	}
	return stride
}
