package cuda

import "antgpu/internal/rng"

// Thread is the kernel-side handle to one thread within a Run phase. The
// pointer passed to the phase closure is only valid for the duration of that
// call; per-thread state living across phases belongs in plain Go slices
// indexed by Thread.ID (the analogue of registers) or in shared memory.
type Thread struct {
	b    *Block
	tid  int // linear thread index within block
	lane int // lane within warp
}

// ID returns the linear thread index within the block (threadIdx linearised).
func (t *Thread) ID() int { return t.tid }

// Lane returns the thread's lane within its warp.
func (t *Thread) Lane() int { return t.lane }

// WarpID returns the warp index within the block.
func (t *Thread) WarpID() int { return t.tid / t.b.dev.WarpSize }

// Block returns the enclosing block handle.
func (t *Thread) Block() *Block { return t.b }

// GlobalID returns the grid-wide linear thread index
// (blockIdx * blockDim + threadIdx).
func (t *Thread) GlobalID() int { return t.b.linear*t.b.threads + t.tid }

// Charge accounts n arithmetic instructions executed by this thread in this
// phase. The warp issues the maximum of its lanes' charges (lock-step).
func (t *Thread) Charge(n float64) { t.b.laneCharge[t.lane] += n }

// Diverge charges extra warp instruction issues caused by intra-warp
// divergence that the positional model cannot see (e.g. an if/else where
// both sides execute, or a data-dependent loop modelled outside Run). The
// charge is accounted once per warp retirement.
func (t *Thread) Diverge(extraIssues float64) { t.b.divergeExtra += extraIssues }

// --- Global memory ---------------------------------------------------------

// LdF32 loads buf[i] from global memory.
func (t *Thread) LdF32(buf *F32, i int) float32 {
	t.b.record(t.lane, opGldF32, buf.id, i)
	return buf.data[i]
}

// StF32 stores v to buf[i] in global memory.
func (t *Thread) StF32(buf *F32, i int, v float32) {
	t.b.record(t.lane, opGstF32, buf.id, i)
	buf.data[i] = v
}

// LdI32 loads buf[i] from global memory.
func (t *Thread) LdI32(buf *I32, i int) int32 {
	t.b.record(t.lane, opGldI32, buf.id, i)
	return buf.data[i]
}

// StI32 stores v to buf[i] in global memory.
func (t *Thread) StI32(buf *I32, i int, v int32) {
	t.b.record(t.lane, opGstI32, buf.id, i)
	buf.data[i] = v
}

// LdU64 loads buf[i] from global memory (8-byte access).
func (t *Thread) LdU64(buf *U64, i int) uint64 {
	t.b.record(t.lane, opGldU64, buf.id, i)
	return buf.data[i]
}

// StU64 stores v to buf[i] in global memory (8-byte access).
func (t *Thread) StU64(buf *U64, i int, v uint64) {
	t.b.record(t.lane, opGstU64, buf.id, i)
	buf.data[i] = v
}

// --- Shared memory ----------------------------------------------------------

// sharedID is a pseudo buffer id for shared arrays; banks depend only on the
// element index so one id suffices.
const sharedID bufferID = 0

// LdShF32 loads s[i] from a shared-memory array allocated with
// Block.SharedF32.
func (t *Thread) LdShF32(s []float32, i int) float32 {
	t.b.record(t.lane, opShLd, sharedID, i)
	return s[i]
}

// StShF32 stores v to s[i] in shared memory.
func (t *Thread) StShF32(s []float32, i int, v float32) {
	t.b.record(t.lane, opShSt, sharedID, i)
	s[i] = v
}

// LdShI32 loads s[i] from a shared int32 array.
func (t *Thread) LdShI32(s []int32, i int) int32 {
	t.b.record(t.lane, opShLd, sharedID, i)
	return s[i]
}

// StShI32 stores v to s[i] in a shared int32 array.
func (t *Thread) StShI32(s []int32, i int, v int32) {
	t.b.record(t.lane, opShSt, sharedID, i)
	s[i] = v
}

// AtomicAddShI32 performs an atomic add on a shared int32 array (compute
// capability 1.2+). Conflicting lanes serialise as instruction replays.
func (t *Thread) AtomicAddShI32(s []int32, i int, v int32) int32 {
	t.b.record(t.lane, opShAtom, sharedID, i)
	old := s[i]
	s[i] = old + v
	return old
}

// --- Texture ----------------------------------------------------------------

// TexF32 fetches tex.Buf[i] through the texture cache.
func (t *Thread) TexF32(tex *Texture, i int) float32 {
	t.b.record(t.lane, opTexF32, tex.buf.id, i)
	return tex.buf.data[i]
}

// --- Atomics ----------------------------------------------------------------

// AtomicAddF32 performs an atomic add on buf[i] and returns the previous
// value. On devices without native float atomics (CC 1.x) the timing model
// applies the emulation multiplier; functionally the result is identical.
func (t *Thread) AtomicAddF32(buf *F32, i int, v float32) float32 {
	t.b.record(t.lane, opAtomAddF32, buf.id, i)
	mu := buf.lock.of(i)
	mu.Lock()
	old := buf.data[i]
	buf.data[i] = old + v
	mu.Unlock()
	t.b.noteAtomic(atomicKey(buf.id, i))
	return old
}

// AtomicAddI32 performs an atomic add on buf[i] and returns the previous
// value.
func (t *Thread) AtomicAddI32(buf *I32, i int, v int32) int32 {
	t.b.record(t.lane, opAtomAddI32, buf.id, i)
	mu := buf.lock.of(i)
	mu.Lock()
	old := buf.data[i]
	buf.data[i] = old + v
	mu.Unlock()
	t.b.noteAtomic(atomicKey(buf.id, i))
	return old
}

func atomicKey(id bufferID, i int) uint64 {
	return uint64(id)<<40 | uint64(uint32(i))
}

// --- Random numbers -----------------------------------------------------------

// LCGF32 draws a uniform float32 from the register-resident device LCG:
// states[i] is a register, not device memory, so the draw touches no memory
// and charges rng.DeviceLCGCharge issues.
func (t *Thread) LCGF32(states []uint64, i int) float32 {
	v := rng.NextF32Raw(states, i)
	t.Charge(rng.DeviceLCGCharge)
	return v
}

// LibF32 draws a uniform float32 the way a library generator would: the
// per-thread state (rng.LibStateWords 8-byte words, standing in for
// XORWOW's 48-byte state) lives in global device memory, so every draw pays
// metered loads and stores in addition to the longer arithmetic sequence.
// The buffer must hold rng.LibStateWords entries per stream (see
// rng.SeedLibStates).
func (t *Thread) LibF32(states *U64, i int) float32 {
	base := i * rng.LibStateWords
	g := rng.FromState(t.LdU64(states, base))
	for w := 1; w < rng.LibStateWords; w++ {
		_ = t.LdU64(states, base+w)
	}
	v := g.Float32()
	// Extra scrambling work standing in for XORWOW + distribution setup.
	t.Charge(rng.DeviceLibCharge)
	t.StU64(states, base, g.State())
	for w := 1; w < rng.LibStateWords; w++ {
		t.StU64(states, base+w, g.State()^uint64(w))
	}
	return v
}
