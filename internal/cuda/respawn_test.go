package cuda

import (
	"errors"
	"sync"
	"testing"
)

// TestDieAtLaunch: the permanent-death schedule lets exactly DieAtLaunch
// launches succeed, then fails every later one with a sticky launch error —
// and the death persists across Device.Reset, because the opportunity
// counter keeps advancing.
func TestDieAtLaunch(t *testing.T) {
	dev := TeslaM2050()
	dev.Faults = &FaultPlan{DieAtLaunch: 3}
	if !dev.Faults.Active() {
		t.Fatal("DieAtLaunch plan reports inactive")
	}

	for i := 0; i < 3; i++ {
		if _, err := launchNoop(dev, nil); err != nil {
			t.Fatalf("launch %d before the death point failed: %v", i, err)
		}
	}
	if _, err := launchNoop(dev, nil); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("launch at the death point: got %v, want ErrLaunchFailed", err)
	}
	if dev.Healthy() == nil {
		t.Fatal("death did not poison the context")
	}

	// Reset clears the poison, but the board is still dead: the very next
	// launch fails again.
	dev.Reset()
	if dev.Healthy() != nil {
		t.Fatal("Reset did not clear the sticky fault")
	}
	if _, err := launchNoop(dev, nil); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("launch after reset: got %v, want ErrLaunchFailed (permanent death)", err)
	}
}

func TestParseFaultSpecDieAt(t *testing.T) {
	p, err := ParseFaultSpec("dieat=17,seed=3")
	if err != nil {
		t.Fatalf("ParseFaultSpec: %v", err)
	}
	if p.DieAtLaunch != 17 || p.Seed != 3 {
		t.Fatalf("parsed %+v, want DieAtLaunch=17 Seed=3", p)
	}
	if _, err := ParseFaultSpec("dieat=banana"); err == nil {
		t.Fatal("bad dieat value accepted")
	}
}

// TestDeviceRespawn: Respawn resets the lost board and hands back a fresh
// healthy clone — poison, accounting and fault plan gone, hardware-metrics
// hook kept.
func TestDeviceRespawn(t *testing.T) {
	base := TeslaM2050()
	base.Faults = &FaultPlan{DieAtLaunch: 1}
	dev := base.Clone()
	hw := &countingObserver{}
	dev.Metrics = hw
	if _, err := launchNoop(dev, nil); err != nil {
		t.Fatalf("first launch: %v", err)
	}
	if _, err := launchNoop(dev, nil); !errors.Is(err, ErrLaunchFailed) {
		t.Fatalf("want dead board, got %v", err)
	}

	fresh := dev.Respawn()
	if fresh == dev {
		t.Fatal("Respawn returned the old device")
	}
	if dev.Healthy() != nil {
		t.Fatal("Respawn did not reset the old board")
	}
	if fresh.Faults != nil {
		t.Fatal("replacement carries the dead board's fault plan")
	}
	if fresh.Metrics != LaunchObserver(hw) {
		t.Fatal("replacement lost the metrics hook")
	}
	if fresh.Healthy() != nil {
		t.Fatal("replacement is poisoned")
	}
	if _, err := launchNoop(fresh, nil); err != nil {
		t.Fatalf("replacement launch: %v", err)
	}
}

type countingObserver struct{ n int }

func (c *countingObserver) ObserveLaunch(cfg *LaunchConfig, res *LaunchResult) { c.n++ }

// TestConcurrentCloneFaultIsolation is the island-runtime safety property,
// run under -race in CI: concurrent clones of one base device, each with
// its own fault plan, never leak faults or poison across clones. A sticky
// death on island 3 must never make island 5's context unhealthy.
func TestConcurrentCloneFaultIsolation(t *testing.T) {
	base := TeslaM2050()
	base.Faults = &FaultPlan{Seed: 5} // cloned (and replaced) per island

	const islands = 8
	const launches = 12
	devs := make([]*Device, islands)
	for i := range devs {
		devs[i] = base.Clone()
		if i == 3 {
			devs[i].Faults = &FaultPlan{DieAtLaunch: 4}
		} else {
			devs[i].Faults = &FaultPlan{Seed: uint64(i)} // counting only
		}
	}

	var wg sync.WaitGroup
	errCounts := make([]int, islands)
	for i := range devs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dev := devs[i]
			buf, err := dev.MallocF32("scratch", 64)
			if err != nil {
				t.Errorf("island %d: alloc: %v", i, err)
				return
			}
			for l := 0; l < launches; l++ {
				if _, err := launchNoop(dev, buf); err != nil {
					errCounts[i]++
				}
			}
		}(i)
	}
	wg.Wait()

	for i, dev := range devs {
		if i == 3 {
			if errCounts[i] != launches-4 {
				t.Fatalf("island 3: %d launch failures, want %d", errCounts[i], launches-4)
			}
			if dev.Healthy() == nil {
				t.Fatal("island 3 should be poisoned")
			}
			continue
		}
		if errCounts[i] != 0 {
			t.Fatalf("island %d saw %d launch failures; fault leaked across clones", i, errCounts[i])
		}
		if err := dev.Healthy(); err != nil {
			t.Fatalf("island %d poisoned by island 3's death: %v", i, err)
		}
		if got := dev.Faults.Launches(); got != launches {
			t.Fatalf("island %d plan counted %d launches, want %d", i, got, launches)
		}
	}
	if base.Healthy() != nil || base.Faults.Launches() != 0 {
		t.Fatal("base device mutated by clones")
	}
}
