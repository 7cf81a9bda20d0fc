package cuda

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Fault-injection fabric. The real GPUs of the paper's evaluation era —
// Tesla C1060/M2050 boards in long-running clusters — fail in ways the
// functional simulator would otherwise never exercise: kernel launches that
// error out, display-watchdog kills of long kernels, single-bit ECC events
// in DRAM, and allocation failures. A FaultPlan injects those faults
// deterministically (seed-driven, counted per launch and per allocation) so
// the recovery runtime above the simulator can be tested byte-for-byte
// reproducibly.
//
// Faults surface as typed errors wrapping the sentinels below; callers
// classify them with errors.Is. A sticky fault additionally poisons the
// device context: every subsequent launch or allocation fails with the same
// underlying error until Device.Reset is called, mirroring how a real CUDA
// context behaves after an unrecoverable error.

// Typed fault errors. Injected (and genuine accounting) failures wrap these
// sentinels, so errors.Is(err, cuda.ErrOOM) etc. classify them.
var (
	// ErrLaunchFailed is a kernel launch that the device rejected.
	ErrLaunchFailed = errors.New("cuda: kernel launch failed")
	// ErrOOM is a device allocation that exceeded Device.GlobalMemBytes or
	// was failed by injection.
	ErrOOM = errors.New("cuda: out of device memory")
	// ErrWatchdog is a kernel that ran past the watchdog budget and was
	// killed mid-execution (its partial writes remain in device buffers).
	ErrWatchdog = errors.New("cuda: kernel killed by watchdog timeout")
	// ErrECC is an ECC memory event: one bit of one device buffer has been
	// flipped. The error is reported on the launch during which it occurred.
	ErrECC = errors.New("cuda: ECC memory error")
)

// FaultKind enumerates the injectable fault classes.
type FaultKind int

const (
	// FaultNone means the launch or allocation proceeds normally.
	FaultNone FaultKind = iota
	// FaultLaunch fails the launch before any block executes.
	FaultLaunch
	// FaultWatchdog kills the kernel after it ran (partial writes remain).
	FaultWatchdog
	// FaultECC flips one bit of one registered device buffer.
	FaultECC
	// FaultOOM fails a device allocation.
	FaultOOM
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "none"
	case FaultLaunch:
		return "launch"
	case FaultWatchdog:
		return "watchdog"
	case FaultECC:
		return "ecc"
	case FaultOOM:
		return "oom"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// FaultPlan is a deterministic fault-injection schedule. Rates are
// per-opportunity probabilities (per launch for LaunchRate, WatchdogRate and
// ECCRate; per allocation for OOMRate); the decision for the i-th
// opportunity is a pure function of (Seed, i), so two runs over the same
// launch sequence inject identical faults.
//
// A plan is stateful: it counts launches, allocations and faults as the
// device consumes it. To replay the same schedule from the start, use Clone.
// Plans are not safe for concurrent use by multiple devices; attach one plan
// to one device (launches on a device are issued serially, mirroring a
// single CUDA stream).
type FaultPlan struct {
	// Seed drives every injection decision.
	Seed uint64
	// LaunchRate is the probability a launch fails outright.
	LaunchRate float64
	// WatchdogRate is the probability a launch is killed by the watchdog
	// after executing.
	WatchdogRate float64
	// ECCRate is the probability a launch suffers an ECC bit flip in a
	// registered device buffer.
	ECCRate float64
	// OOMRate is the probability a device allocation fails.
	OOMRate float64
	// StickyRate is the probability a launch fault poisons the device
	// context until Reset (the unrecoverable-error analogue).
	StickyRate float64
	// WatchdogMS, when positive, is a deterministic kernel budget: any
	// launch whose simulated time exceeds it is killed, independent of
	// WatchdogRate. This is the display-watchdog model — a kernel that is
	// too slow fails on every attempt.
	WatchdogMS float64
	// MaxFaults, when positive, stops injecting after that many faults
	// (budget overruns via WatchdogMS still fire; they are deterministic
	// properties of the kernel, not injections).
	MaxFaults int
	// DieAtLaunch, when positive, kills the device permanently: every
	// launch from the DieAtLaunch-th opportunity (0-indexed) onward fails
	// with a sticky launch error. Because the opportunity counter keeps
	// advancing across Device.Reset, the death persists through any number
	// of reset-and-rebuild attempts — this is the node-loss model (a board
	// that fell off the bus), as opposed to the recoverable transients the
	// rates above inject. Deaths are deterministic properties of the
	// schedule, not random injections, so they ignore MaxFaults.
	DieAtLaunch uint64

	launches uint64
	allocs   uint64
	faults   int
}

// Active reports whether the plan can inject or detect any fault at all.
func (p *FaultPlan) Active() bool {
	if p == nil {
		return false
	}
	return p.LaunchRate > 0 || p.WatchdogRate > 0 || p.ECCRate > 0 ||
		p.OOMRate > 0 || p.WatchdogMS > 0 || p.DieAtLaunch > 0
}

// Faults returns the number of faults injected so far.
func (p *FaultPlan) Faults() int { return p.faults }

// Launches returns the number of launch opportunities the plan has seen.
func (p *FaultPlan) Launches() uint64 { return p.launches }

// Allocs returns the number of allocation opportunities the plan has seen.
func (p *FaultPlan) Allocs() uint64 { return p.allocs }

// Clone returns a copy of the plan with fresh counters, replaying the same
// schedule from the start.
func (p *FaultPlan) Clone() *FaultPlan {
	if p == nil {
		return nil
	}
	q := *p
	q.launches, q.allocs, q.faults = 0, 0, 0
	return &q
}

// Derived draw streams (the first argument of u01/uN).
const (
	faultStreamKind   = 1
	faultStreamSticky = 2
	faultStreamAlloc  = 3
	faultStreamBuffer = 4
	faultStreamElem   = 5
	faultStreamBit    = 6
)

func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// bits returns 64 mixed bits for the counter-th draw of a stream.
func (p *FaultPlan) bits(stream, counter uint64) uint64 {
	x := splitmix64(p.Seed ^ stream*0xA24BAED4963EE407)
	return splitmix64(x ^ counter*0x9E3779B97F4A7C15)
}

// u01 returns a uniform float64 in [0, 1).
func (p *FaultPlan) u01(stream, counter uint64) float64 {
	return float64(p.bits(stream, counter)>>11) / float64(1<<53)
}

// uN returns a uniform integer in [0, n).
func (p *FaultPlan) uN(stream, counter uint64, n int) int {
	if n <= 0 {
		return 0
	}
	return int(p.bits(stream, counter) % uint64(n))
}

// budgetLeft reports whether MaxFaults still allows injections.
func (p *FaultPlan) budgetLeft() bool {
	return p.MaxFaults <= 0 || p.faults < p.MaxFaults
}

// drawLaunch decides the fate of the next launch: the fault kind (or
// FaultNone) and whether the fault is sticky.
func (p *FaultPlan) drawLaunch() (FaultKind, bool) {
	i := p.launches
	p.launches++
	if p.DieAtLaunch > 0 && i >= p.DieAtLaunch {
		p.faults++
		return FaultLaunch, true
	}
	if !p.budgetLeft() {
		return FaultNone, false
	}
	u := p.u01(faultStreamKind, i)
	r := p.LaunchRate
	if u < r {
		return p.hit(FaultLaunch, i)
	}
	r += p.WatchdogRate
	if u < r {
		return p.hit(FaultWatchdog, i)
	}
	r += p.ECCRate
	if u < r {
		return p.hit(FaultECC, i)
	}
	return FaultNone, false
}

func (p *FaultPlan) hit(k FaultKind, i uint64) (FaultKind, bool) {
	p.faults++
	return k, p.u01(faultStreamSticky, i) < p.StickyRate
}

// drawAlloc decides whether the next device allocation fails with OOM.
func (p *FaultPlan) drawAlloc() bool {
	i := p.allocs
	p.allocs++
	if !p.budgetLeft() {
		return false
	}
	if p.u01(faultStreamAlloc, i) < p.OOMRate {
		p.faults++
		return true
	}
	return false
}

// ParseFaultSpec parses a comma-separated fault-injection spec, e.g.
//
//	"rate=0.02,seed=7"
//	"launch=0.05,ecc=0.01,sticky=0.25,watchdogms=50,max=20"
//
// Keys: launch, watchdog, ecc, oom (per-opportunity rates in [0,1]);
// rate (shorthand setting launch, watchdog, ecc and oom to the same value);
// sticky (probability a fault poisons the context); watchdogms (simulated-ms
// kernel budget); seed; max (fault budget); dieat (launch opportunity at
// which the device dies permanently).
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	p := &FaultPlan{Seed: 1}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("cuda: fault spec entry %q: want key=value", kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cuda: fault spec seed %q: %v", val, err)
			}
			p.Seed = s
		case "max":
			m, err := strconv.Atoi(val)
			if err != nil || m < 0 {
				return nil, fmt.Errorf("cuda: fault spec max %q: want non-negative integer", val)
			}
			p.MaxFaults = m
		case "dieat":
			d, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("cuda: fault spec dieat %q: want launch index", val)
			}
			p.DieAtLaunch = d
		case "rate", "launch", "watchdog", "ecc", "oom", "sticky", "watchdogms":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, fmt.Errorf("cuda: fault spec %s=%q: want non-negative number", key, val)
			}
			if key != "watchdogms" && f > 1 {
				return nil, fmt.Errorf("cuda: fault spec %s=%q: rate must be in [0,1]", key, val)
			}
			switch key {
			case "rate":
				p.LaunchRate, p.WatchdogRate, p.ECCRate, p.OOMRate = f, f, f, f
			case "launch":
				p.LaunchRate = f
			case "watchdog":
				p.WatchdogRate = f
			case "ecc":
				p.ECCRate = f
			case "oom":
				p.OOMRate = f
			case "sticky":
				p.StickyRate = f
			case "watchdogms":
				p.WatchdogMS = f
			}
		default:
			return nil, fmt.Errorf("cuda: fault spec key %q unknown (want rate, launch, watchdog, ecc, oom, sticky, watchdogms, seed, max, dieat)", key)
		}
	}
	return p, nil
}

// --- device-side fault state ------------------------------------------------

// eccTarget is a device buffer the ECC injector can flip a bit in. F32 and
// I32 buffers allocated through the device register themselves; U64 RNG
// state buffers are exempt per the fault model (their words are consumed and
// rewritten wholesale, so a flip there is indistinguishable from a reseed).
type eccTarget interface {
	Name() string
	eccLen() int
	eccFlip(elem int, bit uint) string
}

// Healthy returns nil when the device context is usable, or the sticky
// fault that poisoned it.
func (d *Device) Healthy() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sticky
}

// AllocatedBytes returns the device memory currently charged by the
// allocation accounting.
func (d *Device) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocBytes
}

// Reset restores a poisoned device context: the sticky fault, the
// allocation accounting and the ECC target registry are all cleared — the
// analogue of cudaDeviceReset. Buffers allocated before the reset are stale
// device state; callers are expected to re-allocate and re-upload, exactly
// what the recovery runtime's rebuild-and-replay does.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.sticky = nil
	d.allocBytes = 0
	d.eccTargets = nil
}

// Respawn is the reset-respawn primitive of the island runtime's
// degraded-fleet model: it Resets the lost board, dropping its sticky
// poison, allocation accounting and ECC registry, and returns a fresh,
// healthy Clone of it to take its place. The replacement carries no fault
// plan — replacement hardware is presumed healthy — and keeps the Metrics
// observer, so a respawned island keeps reporting to the same registry.
func (d *Device) Respawn() *Device {
	d.Reset()
	fresh := d.Clone()
	fresh.Metrics = d.Metrics
	fresh.Faults = nil
	return fresh
}

// poison records a sticky fault on the device context.
func (d *Device) poison(sticky bool, err error) {
	if !sticky {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky == nil {
		d.sticky = err
	}
}

// registerECC adds a buffer to the ECC target registry (allocation order,
// so target choice is deterministic across identical runs).
func (d *Device) registerECC(t eccTarget) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.eccTargets = append(d.eccTargets, t)
}

// unregisterECC removes a freed buffer from the registry.
func (d *Device) unregisterECC(t eccTarget) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, x := range d.eccTargets {
		if x == t {
			d.eccTargets = append(d.eccTargets[:i], d.eccTargets[i+1:]...)
			return
		}
	}
}

// flipECCBit flips one deterministic bit of one registered buffer and
// returns a description of what was corrupted.
func (d *Device) flipECCBit(p *FaultPlan) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.eccTargets) == 0 {
		return "ECC event with no registered device buffers"
	}
	ctr := uint64(p.faults)
	t := d.eccTargets[p.uN(faultStreamBuffer, ctr, len(d.eccTargets))]
	n := t.eccLen()
	if n == 0 {
		return fmt.Sprintf("ECC event in empty buffer %s", t.Name())
	}
	elem := p.uN(faultStreamElem, ctr, n)
	bit := uint(p.uN(faultStreamBit, ctr, 32))
	return t.eccFlip(elem, bit)
}
