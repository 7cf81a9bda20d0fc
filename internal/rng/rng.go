// Package rng provides the random number generators of the reproduction.
//
// The paper's sequential code (Stützle's ACOTSP) uses a simple device
// function — a linear congruential generator — rather than a library RNG.
// Version (3) of the paper's tour-construction study replaces the NVIDIA
// CURAND library with exactly such a device function and gains 10–20 %.
// This package therefore provides two generators:
//
//   - LCG: the register-resident device LCG (cheap: a few arithmetic
//     instructions, no memory traffic), and
//   - Lib ("library-style"): a stand-in for CURAND that keeps its state in
//     global device memory and burns more instructions per draw, so the
//     simulated cost difference between versions (2) and (3) of Table II is
//     mechanistic rather than asserted.
//
// This package holds the arithmetic, the seeding and the device cost
// constants of both. The draws that meter a simulated thread live in
// package cuda (Thread.LCGF32, Thread.LibF32 and the tile collective
// Block.IRouletteTile), which imports this one.
//
// All generators are deterministic and fully seeded.
package rng

// LCG is a 64-bit linear congruential generator with the Knuth MMIX
// multiplier. The zero value is a valid (if dull) state; use Seed to
// decorrelate streams.
type LCG struct {
	state uint64
}

const (
	lcgMul = 6364136223846793005
	lcgInc = 1442695040888963407
)

// Seed returns an LCG whose stream is decorrelated from other (seed,
// stream) pairs by a splitmix64 scramble.
func Seed(seed, stream uint64) LCG {
	z := seed + 0x9e3779b97f4a7c15*(stream+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return LCG{state: z}
}

// islandSalt decorrelates the island-seed domain from the per-ant stream
// domain: IslandSeed(s, k) never aliases Seed(s, k) even though both are
// derived from the same master seed.
const islandSalt = 0x151A4D5EED0C0107

// IslandSeed derives the master RNG seed of one island of a multi-colony
// run. It is a pure SplitMix-style function of (master, island) — not a
// position in a shared sequential stream — which gives the order
// independence the degraded-fleet model needs: island k's seed does not
// depend on how many islands exist, which islands were created before it,
// or which islands have died. An (N-1)-island run after a quarantine
// therefore draws exactly the random numbers the same islands drew in the
// N-island run, making degraded runs byte-reproducible given the same
// kill point.
func IslandSeed(master uint64, island int) uint64 {
	g := Seed(master^islandSalt, uint64(island))
	return g.State()
}

// antSalt decorrelates the per-ant construction-stream domain from both
// the raw Seed streams and the island-seed domain, so AntSeed(s, i, a)
// never aliases Seed(s, k) or IslandSeed(s, k) for any k.
const antSalt = 0x5EEDA17C0109A271

// AntSeed derives the RNG stream of one ant of one construction iteration:
// a two-level SplitMix split, master→iteration→ant, mirroring IslandSeed.
// Like the island derivation it is a pure function of (master, iter, ant)
// — not a position in a shared sequence — so what an ant draws cannot
// depend on which worker built it, how ants are sharded across workers, or
// in what order the other ants ran. This is the seam that makes parallel
// tour construction bit-identical to serial construction for any worker
// count. Feed the result to FromState.
func AntSeed(master, iter uint64, ant int) uint64 {
	g := Seed(master^antSalt, iter)
	return Seed(g.State(), uint64(ant)).State()
}

// Uint64 advances the generator and returns 64 random bits.
func (g *LCG) Uint64() uint64 {
	g.state = g.state*lcgMul + lcgInc
	return g.state
}

// Uint32 returns 32 random bits (the high half, which has better
// statistical quality in an LCG).
func (g *LCG) Uint32() uint32 { return uint32(g.Uint64() >> 32) }

// Float32 returns a uniform float32 in [0, 1).
func (g *LCG) Float32() float32 {
	return float32(g.Uint64()>>40) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (g *LCG) Float64() float64 {
	return float64(g.Uint64()>>11) * (1.0 / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *LCG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(g.Uint64() % uint64(n))
}

// State exposes the raw state, for storing per-thread streams in device
// buffers.
func (g LCG) State() uint64 { return g.state }

// FromState reconstructs a generator from a raw state word.
func FromState(s uint64) LCG { return LCG{state: s} }

// Device-side instruction charges. An LCG draw is a 64-bit multiply-add
// plus shift and convert (~4 issues). A library-style draw models CURAND's
// XORWOW pipeline — five state words plus a Weyl counter and the output
// transformation — with the global-memory state round trip metered
// separately (LibStateWords 8-byte words loaded and stored per draw).
const (
	DeviceLCGCharge = 4.0
	DeviceLibCharge = 60.0
	LibStateWords   = 6
)

// NextF32Raw advances states[i] and returns the draw. It charges nothing:
// the device draws in package cuda and the warp-vector kernels account
// DeviceLCGCharge themselves.
func NextF32Raw(states []uint64, i int) float32 {
	g := FromState(states[i])
	v := g.Float32()
	states[i] = g.State()
	return v
}

// SeedLibStates fills a library-RNG state array (LibStateWords words per
// stream) with decorrelated streams for `streams` consumers.
func SeedLibStates(d []uint64, seed uint64, streams int) {
	for i := 0; i < streams; i++ {
		g := Seed(seed, uint64(i))
		for w := 0; w < LibStateWords && i*LibStateWords+w < len(d); w++ {
			d[i*LibStateWords+w] = g.State() ^ uint64(w)
		}
	}
}
