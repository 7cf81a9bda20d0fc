package cuda

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// flippedF32 returns v with one bit of its IEEE-754 representation flipped.
func flippedF32(v float32, bit uint) float32 {
	return math.Float32frombits(math.Float32bits(v) ^ (1 << (bit & 31)))
}

// bufferID identifies a device allocation so the coalescing model can tell
// accesses to different buffers apart without relying on host addresses.
type bufferID uint32

var nextBufferID atomic.Uint32

func newBufferID() bufferID { return bufferID(nextBufferID.Add(1)) }

// chargeAlloc runs the device-side part of an allocation: the sticky-fault
// check, injected OOM, and accounting against GlobalMemBytes. It returns an
// error wrapping ErrOOM (or the sticky fault) when the allocation fails.
func (d *Device) chargeAlloc(name string, bytes int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.sticky != nil {
		return fmt.Errorf("cuda: malloc %s: device context corrupt: %w", name, d.sticky)
	}
	if d.Faults != nil && d.Faults.drawAlloc() {
		return fmt.Errorf("cuda: malloc %s (%d bytes): injected allocation failure: %w",
			name, bytes, ErrOOM)
	}
	if d.GlobalMemBytes > 0 && d.allocBytes+bytes > d.GlobalMemBytes {
		return fmt.Errorf("cuda: malloc %s: %d bytes requested, %d of %d in use: %w",
			name, bytes, d.allocBytes, d.GlobalMemBytes, ErrOOM)
	}
	d.allocBytes += bytes
	return nil
}

// releaseAlloc returns bytes to the accounting pool.
func (d *Device) releaseAlloc(bytes int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocBytes -= bytes
	if d.allocBytes < 0 {
		d.allocBytes = 0
	}
}

// F32 is a device buffer of float32 values ("device global memory"). Host
// code reads and writes it freely through Data; kernels must access it
// through Thread methods so the accesses are metered.
type F32 struct {
	id    bufferID
	name  string
	data  []float32
	lock  addrLocks
	dev   *Device // nil for unbound (package-level) allocations
	bytes int64
}

// MallocF32 allocates a named float32 device buffer of n elements without
// binding it to a device: no accounting, no fault injection. Tests and
// standalone kernels use it; engines allocate through Device.MallocF32.
func MallocF32(name string, n int) *F32 {
	return &F32{id: newBufferID(), name: name, data: make([]float32, n)}
}

// MallocF32 allocates a named float32 device buffer of n elements on the
// device, charging the allocation against GlobalMemBytes and registering
// the buffer as an ECC fault target.
func (d *Device) MallocF32(name string, n int) (*F32, error) {
	bytes := int64(n) * 4
	if err := d.chargeAlloc(name, bytes); err != nil {
		return nil, err
	}
	b := MallocF32(name, n)
	b.dev, b.bytes = d, bytes
	d.registerECC(b)
	return b, nil
}

// Free returns the buffer's bytes to the device accounting pool and removes
// it from the ECC target registry. Safe on nil and unbound buffers, and
// idempotent.
func (b *F32) Free() {
	if b == nil || b.dev == nil {
		return
	}
	b.dev.releaseAlloc(b.bytes)
	b.dev.unregisterECC(b)
	b.dev = nil
}

func (b *F32) eccLen() int { return len(b.data) }

func (b *F32) eccFlip(elem int, bit uint) string {
	old := b.data[elem]
	b.data[elem] = flippedF32(old, bit)
	return fmt.Sprintf("ECC bit flip in %s[%d] bit %d: %g -> %g",
		b.name, elem, bit, old, b.data[elem])
}

// Data exposes the backing store for host-side initialisation and readback
// (the analogue of cudaMemcpy).
func (b *F32) Data() []float32 { return b.data }

// Len returns the element count.
func (b *F32) Len() int { return len(b.data) }

// Name returns the buffer's diagnostic name.
func (b *F32) Name() string { return b.name }

// Fill sets every element to v.
func (b *F32) Fill(v float32) {
	for i := range b.data {
		b.data[i] = v
	}
}

func (b *F32) String() string { return fmt.Sprintf("F32[%s, %d]", b.name, len(b.data)) }

// I32 is a device buffer of int32 values.
type I32 struct {
	id    bufferID
	name  string
	data  []int32
	lock  addrLocks
	dev   *Device
	bytes int64
}

// MallocI32 allocates a named int32 device buffer of n elements without
// binding it to a device (no accounting, no fault injection).
func MallocI32(name string, n int) *I32 {
	return &I32{id: newBufferID(), name: name, data: make([]int32, n)}
}

// MallocI32 allocates a named int32 device buffer of n elements on the
// device, charging the allocation against GlobalMemBytes and registering
// the buffer as an ECC fault target.
func (d *Device) MallocI32(name string, n int) (*I32, error) {
	bytes := int64(n) * 4
	if err := d.chargeAlloc(name, bytes); err != nil {
		return nil, err
	}
	b := MallocI32(name, n)
	b.dev, b.bytes = d, bytes
	d.registerECC(b)
	return b, nil
}

// Free returns the buffer's bytes to the device accounting pool and removes
// it from the ECC target registry. Safe on nil and unbound buffers, and
// idempotent.
func (b *I32) Free() {
	if b == nil || b.dev == nil {
		return
	}
	b.dev.releaseAlloc(b.bytes)
	b.dev.unregisterECC(b)
	b.dev = nil
}

func (b *I32) eccLen() int { return len(b.data) }

func (b *I32) eccFlip(elem int, bit uint) string {
	old := b.data[elem]
	b.data[elem] = old ^ (1 << (bit & 31))
	return fmt.Sprintf("ECC bit flip in %s[%d] bit %d: %d -> %d",
		b.name, elem, bit, old, b.data[elem])
}

// Data exposes the backing store for host-side initialisation and readback.
func (b *I32) Data() []int32 { return b.data }

// Len returns the element count.
func (b *I32) Len() int { return len(b.data) }

// Name returns the buffer's diagnostic name.
func (b *I32) Name() string { return b.name }

// Fill sets every element to v.
func (b *I32) Fill(v int32) {
	for i := range b.data {
		b.data[i] = v
	}
}

func (b *I32) String() string { return fmt.Sprintf("I32[%s, %d]", b.name, len(b.data)) }

// U64 is a device buffer of uint64 values (used for RNG states). U64
// buffers are charged by the allocation accounting but are exempt from ECC
// injection: their words are consumed and rewritten wholesale each draw, so
// a flip is indistinguishable from a reseed and would silently change
// results instead of surfacing as a fault.
type U64 struct {
	id    bufferID
	name  string
	data  []uint64
	dev   *Device
	bytes int64
}

// MallocU64 allocates a named uint64 device buffer of n elements without
// binding it to a device (no accounting, no fault injection).
func MallocU64(name string, n int) *U64 {
	return &U64{id: newBufferID(), name: name, data: make([]uint64, n)}
}

// MallocU64 allocates a named uint64 device buffer of n elements on the
// device, charging the allocation against GlobalMemBytes.
func (d *Device) MallocU64(name string, n int) (*U64, error) {
	bytes := int64(n) * 8
	if err := d.chargeAlloc(name, bytes); err != nil {
		return nil, err
	}
	b := MallocU64(name, n)
	b.dev, b.bytes = d, bytes
	return b, nil
}

// Free returns the buffer's bytes to the device accounting pool. Safe on
// nil and unbound buffers, and idempotent.
func (b *U64) Free() {
	if b == nil || b.dev == nil {
		return
	}
	b.dev.releaseAlloc(b.bytes)
	b.dev = nil
}

// Data exposes the backing store.
func (b *U64) Data() []uint64 { return b.data }

// Len returns the element count.
func (b *U64) Len() int { return len(b.data) }

// Name returns the buffer's diagnostic name.
func (b *U64) Name() string { return b.name }

// addrLocks provides striped mutexes so that atomic device operations from
// concurrently executing blocks (which run on separate host goroutines) are
// host-race-free. The stripe count is a power of two.
type addrLocks struct {
	mu [64]sync.Mutex
}

func (l *addrLocks) of(i int) *sync.Mutex { return &l.mu[i&63] }
