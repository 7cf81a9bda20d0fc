package cuda

import "math/bits"

// Warp is the kernel-side handle to one warp within a RunWarps phase: the
// vector fast path of the simulator. Where a Run phase executes the closure
// once per thread and recovers warp instructions by positionally realigning
// 32 per-lane record streams, a RunWarps phase executes once per warp and
// each Warp op meters one whole warp instruction analytically — transaction
// counts, bank conflicts and texture-line hits are computed in closed form
// (or a single <=32-iteration pass) from the (base, stride, mask) triple.
//
// The two paths are meter-equivalent by construction: every op documents the
// scalar access pattern it models, and the equivalence tests in warp_test.go
// and internal/core assert identical Meter structs and byte-identical
// buffers for every ported kernel. Kernels with data-dependent control flow
// per lane (divergent scans, early exits) stay on the scalar path; the
// analytic metering is exact only when the warp's accesses are expressible
// as rows, strides, broadcasts or explicit per-lane index vectors.
//
// Lane-indexed slice arguments (dst, src, idxs, vals) are indexed by lane
// [0, 32) and must be at least as long as the highest set mask bit + 1. A
// masked op with mask 0 issues nothing and meters nothing, so kernels can
// pass conditionally-empty masks without branching.
type Warp struct {
	b      *Block
	id     int    // warp index within block
	base   int    // first thread id of the warp
	active int    // live lanes (threads may not fill the last warp)
	mask   uint32 // bit per live lane; live lanes are always a prefix
}

// Block returns the enclosing block handle.
func (w *Warp) Block() *Block { return w.b }

// ID returns the warp index within the block.
func (w *Warp) ID() int { return w.id }

// Base returns the linear thread id of the warp's lane 0.
func (w *Warp) Base() int { return w.base }

// Active returns the number of live lanes in the warp.
func (w *Warp) Active() int { return w.active }

// Mask returns the live-lane mask (a prefix mask of Active bits).
func (w *Warp) Mask() uint32 { return w.mask }

// MaskTo returns the mask of the first n live lanes (n is clamped to the
// active count). Because live lanes form a prefix, this is the mask of
// threads with id < Base()+n.
func (w *Warp) MaskTo(n int) uint32 {
	if n >= w.active {
		return w.mask
	}
	if n <= 0 {
		return 0
	}
	return 1<<uint(n) - 1
}

// Charge accounts n warp instruction issues of arithmetic. It is the warp
// analogue of Thread.Charge: the scalar path issues the maximum of the
// per-lane charges, so a vector kernel must pass that maximum itself (for a
// divergent phase, the cost of the slowest lane's path).
func (w *Warp) Charge(n float64) { w.b.meter.ComputeIssues += n }

// Diverge charges extra issues caused by intra-warp divergence, mirroring
// Thread.Diverge.
func (w *Warp) Diverge(extraIssues float64) { w.b.meter.DivergentExtra += extraIssues }

// RunWarps executes one warp-granular phase over all warps of the block, the
// vector counterpart of Block.Run. The closure receives each warp once; the
// *Warp is only valid for the duration of the call. Scalar Run phases and
// vector RunWarps phases may be mixed freely within one kernel.
func (b *Block) RunWarps(f func(w *Warp)) {
	ws := b.dev.WarpSize
	if ws > 32 {
		panic("cuda: RunWarps requires WarpSize <= 32 (lane masks are uint32)")
	}
	b.meter.RunPhases++
	w := &b.warp
	w.b = b
	for wi := 0; wi < b.warps; wi++ {
		base := wi * ws
		active := b.threads - base
		if active > ws {
			active = ws
		}
		w.id = wi
		w.base = base
		w.active = active
		if active >= 32 {
			w.mask = ^uint32(0)
		} else {
			w.mask = 1<<uint(active) - 1
		}
		f(w)
		b.meter.LaneOps += int64(active)
	}
}

// ArgMaxSh runs the block-wide shared-memory argmax tree in one call: for
// s = Threads()/2, Threads()/4, ..., 1, every slot t < s whose partner
// vals[t+s] is strictly greater takes vals[t+s] and idxs[t+s], and a
// barrier ends the level. Afterwards vals[0] and idxs[0] hold the winner
// (with a power-of-two block, the tree covers every slot). Ties keep the
// lower slot and a NaN partner never wins. vals and idxs must hold at least
// Threads() slots.
//
// It meters exactly what the tree written as one RunWarps phase and one
// Sync per level meters. Per level, each warp with lanes t < s issues two
// shared loads over those lanes, charge compute issues and, if any partner
// won, a shared store, a shared load and a shared store over the winning
// lanes; every warp counts its live lanes; then the barrier. The compute
// charges and barrier costs are added in the same order, level by level and
// warp by warp, so even a fractional charge sums to the same bits; the
// instruction and operation counts are whole numbers, exact in any grouping.
func (b *Block) ArgMaxSh(vals []float32, idxs []int32, charge float64) {
	ws := b.dev.WarpSize
	m := b.meter
	vals, idxs = vals[:b.threads], idxs[:b.threads]
	for s := b.threads / 2; s > 0; s /= 2 {
		m.RunPhases++
		for base := 0; base < s; base += ws {
			n := min(s-base, ws)
			m.SharedInstr += 2
			m.SharedOps += 2 * int64(n)
			m.ComputeIssues += charge
			won := 0
			for t := base; t < base+n; t++ {
				if vals[t+s] > vals[t] {
					vals[t] = vals[t+s]
					idxs[t] = idxs[t+s]
					won++
				}
			}
			if won > 0 {
				m.SharedInstr += 3
				m.SharedOps += 3 * int64(won)
			}
		}
		m.LaneOps += int64(b.threads)
		b.Sync()
	}
}

// --- metering helpers -------------------------------------------------------

func (b *Block) meterGlobalLoad(tx, ops int) {
	b.meter.GlobalLoadInstr++
	b.meter.GlobalLoadTx += int64(tx)
	b.meter.GlobalLoadOps += int64(ops)
}

func (b *Block) meterGlobalStore(tx, ops int) {
	b.meter.GlobalStoreInst++
	b.meter.GlobalStoreTx += int64(tx)
	b.meter.GlobalStoreOps += int64(ops)
}

func (b *Block) meterShared(ops int) {
	b.meter.SharedInstr++
	b.meter.SharedOps += int64(ops)
}

// rowTx is the closed-form transaction count of a dense row access: count
// consecutive elements starting at base.
func rowTx(base, count int, elemBytes, segBytes int64) int {
	first := int64(base) * elemBytes / segBytes
	last := (int64(base) + int64(count) - 1) * elemBytes / segBytes
	return int(last - first + 1)
}

// maskedRowTx counts the distinct segments of a masked row access. Skipped
// lanes may skip whole segments, so the closed form does not apply; the
// addresses are monotone in lane order, so consecutive dedup suffices.
func maskedRowTx(base int, mask uint32, elemBytes, segBytes int64) int {
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// stridedTx counts the distinct segments of a strided access
// (lane l touches base + l*stride). The address sequence is monotone for any
// fixed stride, so consecutive dedup counts distinct segments exactly.
func stridedTx(base, stride int, mask uint32, elemBytes, segBytes int64) int {
	tx := 0
	prev := int64(-1)
	first := true
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		seg := (int64(base) + int64(l)*int64(stride)) * elemBytes / segBytes
		if first || seg != prev {
			tx++
			prev = seg
			first = false
		}
	}
	return tx
}

// gatherTx counts the distinct segments of an arbitrary per-lane index
// vector, matching the scalar path's countSegments dedup.
// laneSet is a 64-slot stack hash set for counting distinct per-lane values
// (at most 32 per warp, so the load factor never exceeds 1/2). The used
// bitmask gates slot validity, so insertion clears nothing.
type laneSet struct {
	keys [64]int64
	used uint64
}

func (s *laneSet) insert(v int64) bool {
	h := uint64(v) * 0x9e3779b97f4a7c15
	i := (h ^ h>>32) & 63
	for s.used&(1<<i) != 0 {
		if s.keys[i] == v {
			return false
		}
		i = (i + 1) & 63
	}
	s.used |= 1 << i
	s.keys[i] = v
	return true
}

func (b *Block) gatherTx(idxs []int32, mask uint32, elemBytes, segBytes int64) int {
	var set laneSet
	n := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		if set.insert(int64(idxs[l]) * elemBytes / segBytes) {
			n++
		}
	}
	return n
}

func (b *Block) segBytes() int64 { return int64(b.dev.SegmentBytes) }

// isPrefix reports whether mask is a lane prefix (lanes 0..n-1), as every
// full warp and every in-range tile row is. The masked row ops move a
// prefix with one copy instead of a per-lane loop; the meters do not depend
// on the path.
func isPrefix(mask uint32) bool { return mask&(mask+1) == 0 }

// loadLanes copies src[base+l] into dst[l] for every lane l in mask.
func loadLanes[T float32 | int32](dst, src []T, base int, mask uint32) {
	if isPrefix(mask) {
		n := bits.Len32(mask)
		copy(dst[:n], src[base:base+n])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = src[base+l]
	}
}

// storeLanes copies src[l] into dst[base+l] for every lane l in mask.
func storeLanes[T float32 | int32](dst []T, base int, src []T, mask uint32) {
	if isPrefix(mask) {
		n := bits.Len32(mask)
		copy(dst[base:base+n], src[:n])
		return
	}
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[base+l] = src[l]
	}
}

// --- global memory: rows ----------------------------------------------------

// LdF32Row loads buf[base+l] into dst[l] for every live lane l: one global
// load instruction, transactions counted in closed form. Models each lane
// executing t.LdF32(buf, base+t.Lane()).
func (w *Warp) LdF32Row(buf *F32, base int, dst []float32) {
	b := w.b
	b.meterGlobalLoad(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(dst[:w.active], buf.data[base:base+w.active])
}

// LdF32Masked is LdF32Row restricted to the lanes in mask.
func (w *Warp) LdF32Masked(buf *F32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StF32Row stores src[l] to buf[base+l] for every live lane.
func (w *Warp) StF32Row(buf *F32, base int, src []float32) {
	b := w.b
	b.meterGlobalStore(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(buf.data[base:base+w.active], src[:w.active])
}

// StF32Masked is StF32Row restricted to the lanes in mask.
func (w *Warp) StF32Masked(buf *F32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, src, mask)
}

// LdI32Row loads buf[base+l] into dst[l] for every live lane.
func (w *Warp) LdI32Row(buf *I32, base int, dst []int32) {
	b := w.b
	b.meterGlobalLoad(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(dst[:w.active], buf.data[base:base+w.active])
}

// LdI32Masked is LdI32Row restricted to the lanes in mask.
func (w *Warp) LdI32Masked(buf *I32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	loadLanes(dst, buf.data, base, mask)
}

// StI32Row stores src[l] to buf[base+l] for every live lane.
func (w *Warp) StI32Row(buf *I32, base int, src []int32) {
	b := w.b
	b.meterGlobalStore(rowTx(base, w.active, 4, b.segBytes()), w.active)
	copy(buf.data[base:base+w.active], src[:w.active])
}

// StI32Masked is StI32Row restricted to the lanes in mask.
func (w *Warp) StI32Masked(buf *I32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(maskedRowTx(base, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	storeLanes(buf.data, base, src, mask)
}

// --- global memory: strides, broadcasts, gathers ----------------------------

// LdF32Strided loads buf[base+l*stride] into dst[l] for the lanes in mask:
// the uncoalesced column access of the paper's version (3) pheromone kernel.
func (w *Warp) LdF32Strided(buf *F32, base, stride int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(stridedTx(base, stride, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[base+l*stride]
	}
}

// LdI32Strided loads buf[base+l*stride] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Strided(buf *I32, base, stride int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(stridedTx(base, stride, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[base+l*stride]
	}
}

// LdF32Bcast models every live lane loading the same element: one
// instruction, one transaction (a single segment), Active per-lane ops.
func (w *Warp) LdF32Bcast(buf *F32, idx int) float32 {
	w.b.meterGlobalLoad(1, w.active)
	return buf.data[idx]
}

// LdF32BcastMasked is LdF32Bcast restricted to the lanes in mask. With
// mask 0 it issues nothing and returns 0.
func (w *Warp) LdF32BcastMasked(buf *F32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdI32Bcast models every live lane loading the same element.
func (w *Warp) LdI32Bcast(buf *I32, idx int) int32 {
	w.b.meterGlobalLoad(1, w.active)
	return buf.data[idx]
}

// LdI32BcastMasked is LdI32Bcast restricted to the lanes in mask.
func (w *Warp) LdI32BcastMasked(buf *I32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterGlobalLoad(1, bits.OnesCount32(mask))
	return buf.data[idx]
}

// LdF32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask, with
// transactions counted by full segment dedup (arbitrary index vectors are
// not monotone).
func (w *Warp) LdF32Gather(buf *F32, idxs []int32, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// LdI32Gather loads buf[idxs[l]] into dst[l] for the lanes in mask.
func (w *Warp) LdI32Gather(buf *I32, idxs []int32, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalLoad(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		dst[l] = buf.data[idxs[l]]
	}
}

// StF32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask. Lanes
// scattering to the same index apply in ascending lane order, matching the
// scalar path's lane loop.
func (w *Warp) StF32Scatter(buf *F32, idxs []int32, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// StI32Scatter stores src[l] to buf[idxs[l]] for the lanes in mask.
func (w *Warp) StI32Scatter(buf *I32, idxs []int32, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	b := w.b
	b.meterGlobalStore(b.gatherTx(idxs, mask, 4, b.segBytes()), bits.OnesCount32(mask))
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		buf.data[idxs[l]] = src[l]
	}
}

// --- atomics ----------------------------------------------------------------

// AtomicAddF32Row adds src[l] to buf[base+l] for every live lane: the
// conflict-free contiguous case (distinct addresses, zero serialisation).
// Atomics are read-modify-write transactions, so the segment count charges
// both load and store transactions, as the scalar retirement does.
func (w *Warp) AtomicAddF32Row(buf *F32, base int, src []float32) {
	b := w.b
	m := b.meter
	m.AtomicInstr++
	m.AtomicOps += int64(w.active)
	tx := rowTx(base, w.active, 4, b.segBytes())
	m.GlobalLoadTx += int64(tx)
	m.GlobalStoreTx += int64(tx)
	for l := 0; l < w.active; l++ {
		i := base + l
		mu := buf.lock.of(i)
		mu.Lock()
		buf.data[i] += src[l]
		mu.Unlock()
		b.noteAtomic(atomicKey(buf.id, i))
	}
}

// AtomicAddF32Scatter adds vals[l] to buf[idxs[l]] for the lanes in mask:
// the scatter pheromone deposit. Conflicting lanes (same index) serialise —
// the extra is ops minus distinct addresses, matching atomicConflicts — and
// apply in ascending lane order so float sums stay bit-identical to the
// scalar lane loop.
func (w *Warp) AtomicAddF32Scatter(buf *F32, idxs []int32, mask uint32, vals []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	m := b.meter
	ops := bits.OnesCount32(mask)
	m.AtomicInstr++
	m.AtomicOps += int64(ops)
	tx := b.gatherTx(idxs, mask, 4, b.segBytes())
	m.GlobalLoadTx += int64(tx)
	m.GlobalStoreTx += int64(tx)
	var set laneSet
	distinct := 0
	for mk := mask; mk != 0; mk &= mk - 1 {
		l := bits.TrailingZeros32(mk)
		i := int(idxs[l])
		if set.insert(int64(i)) {
			distinct++
		}
		mu := buf.lock.of(i)
		mu.Lock()
		buf.data[i] += vals[l]
		mu.Unlock()
		b.noteAtomic(atomicKey(buf.id, i))
	}
	m.AtomicSerialExtra += float64(ops - distinct)
}

// --- texture ----------------------------------------------------------------

// TexF32Row fetches tex[base+l] into dst[l] for every live lane through the
// per-block texture tag cache.
func (w *Warp) TexF32Row(tex *Texture, base int, dst []float32) {
	w.TexF32Masked(tex, base, w.mask, dst)
}

// TexF32Masked is TexF32Row restricted to the lanes in mask. Distinct lines
// probe the tag cache in ascending lane order, exactly the scalar
// retirement's probe sequence, so hits and misses are identical.
func (w *Warp) TexF32Masked(tex *Texture, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	b := w.b
	m := b.meter
	m.TexInstr++
	m.TexFetches += int64(bits.OnesCount32(mask))
	loadLanes(dst, tex.buf.data, base, mask)
	tc := b.texCache(tex.buf.id)
	lineBytes := int64(b.dev.TextureLineBytes)
	missed := false
	if isPrefix(mask) && lineBytes >= 4 {
		// Consecutive elements of a line at least one element wide touch
		// every line from the first lane's to the last lane's.
		last := (int64(base) + int64(bits.Len32(mask)) - 1) * 4 / lineBytes
		for line := int64(base) * 4 / lineBytes; line <= last; line++ {
			if b.probeTex(tc, line) {
				missed = true
			}
		}
	} else {
		prev := int64(-1)
		for mk := mask; mk != 0; mk &= mk - 1 {
			line := int64(base+bits.TrailingZeros32(mk)) * 4 / lineBytes
			if line == prev {
				continue
			}
			prev = line
			if b.probeTex(tc, line) {
				missed = true
			}
		}
	}
	if missed {
		m.TexMissInstr++
	}
}

// --- shared memory ----------------------------------------------------------
//
// Row and broadcast patterns over <= 32 consecutive (or identical) element
// indices touch each bank at most once, so none of these ops can bank
// conflict; they mirror the scalar bankConflictDegree <= 1 outcome exactly.

// LdShF32Row loads s[base+l] into dst[l] for every live lane.
func (w *Warp) LdShF32Row(s []float32, base int, dst []float32) {
	w.b.meterShared(w.active)
	copy(dst[:w.active], s[base:base+w.active])
}

// LdShF32Masked is LdShF32Row restricted to the lanes in mask.
func (w *Warp) LdShF32Masked(s []float32, base int, mask uint32, dst []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShF32Row stores src[l] to s[base+l] for every live lane.
func (w *Warp) StShF32Row(s []float32, base int, src []float32) {
	w.b.meterShared(w.active)
	copy(s[base:base+w.active], src[:w.active])
}

// StShF32Masked is StShF32Row restricted to the lanes in mask.
func (w *Warp) StShF32Masked(s []float32, base int, mask uint32, src []float32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, src, mask)
}

// LdShI32Row loads s[base+l] into dst[l] for every live lane.
func (w *Warp) LdShI32Row(s []int32, base int, dst []int32) {
	w.b.meterShared(w.active)
	copy(dst[:w.active], s[base:base+w.active])
}

// LdShI32Masked is LdShI32Row restricted to the lanes in mask.
func (w *Warp) LdShI32Masked(s []int32, base int, mask uint32, dst []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	loadLanes(dst, s, base, mask)
}

// StShI32Row stores src[l] to s[base+l] for every live lane.
func (w *Warp) StShI32Row(s []int32, base int, src []int32) {
	w.b.meterShared(w.active)
	copy(s[base:base+w.active], src[:w.active])
}

// StShI32Masked is StShI32Row restricted to the lanes in mask.
func (w *Warp) StShI32Masked(s []int32, base int, mask uint32, src []int32) {
	if mask == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(mask))
	storeLanes(s, base, src, mask)
}

// LdShF32Bcast models every live lane reading the same shared element: a
// hardware broadcast, one instruction, no conflicts.
func (w *Warp) LdShF32Bcast(s []float32, idx int) float32 {
	w.b.meterShared(w.active)
	return s[idx]
}

// LdShF32BcastMasked is LdShF32Bcast restricted to the lanes in mask. With
// mask 0 it issues nothing and returns 0.
func (w *Warp) LdShF32BcastMasked(s []float32, idx int, mask uint32) float32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// LdShI32Bcast models every live lane reading the same shared element.
func (w *Warp) LdShI32Bcast(s []int32, idx int) int32 {
	w.b.meterShared(w.active)
	return s[idx]
}

// LdShI32BcastMasked is LdShI32Bcast restricted to the lanes in mask.
func (w *Warp) LdShI32BcastMasked(s []int32, idx int, mask uint32) int32 {
	if mask == 0 {
		return 0
	}
	w.b.meterShared(bits.OnesCount32(mask))
	return s[idx]
}

// StShF32I32Row issues ONE shared-store warp instruction whose lanes write
// two different shared arrays at their own index: lanes in maskF store
// vf[l] to sf[base+l], lanes in maskI store vi[l] to si[base+l]. The masks
// must be disjoint.
//
// This exists because the scalar path's positional retirement merges
// divergent stores to different shared arrays into a single instruction
// (shared arrays all carry the same pseudo buffer id, and banks depend only
// on the element index). A kernel whose if- and else-branches store to
// different arrays at the same stream position retires as one instruction
// covering all 32 lanes; a vector port must reproduce that instruction
// count or the meters drift. Addresses base+l are distinct per lane, so the
// merged instruction cannot bank conflict, as in the scalar model.
func (w *Warp) StShF32I32Row(sf []float32, vf []float32, maskF uint32, si []int32, vi []int32, maskI uint32, base int) {
	both := maskF | maskI
	if both == 0 {
		return
	}
	w.b.meterShared(bits.OnesCount32(both))
	storeLanes(sf, base, vf, maskF)
	storeLanes(si, base, vi, maskI)
}
