package cuda

import (
	"fmt"
	"sync"
)

// Kernel is the body of a simulated GPU kernel. It is invoked once per
// thread block with a *Block handle. Kernel bodies alternate per-thread
// phases (Block.Run) with barriers (Block.Sync), exactly as CUDA kernels
// alternate straight-line thread code with __syncthreads().
//
// Within one Run phase the simulator executes the closure for every thread,
// warp by warp, lane by lane, recording each metered operation into a
// per-lane access stream. When the 32 lanes of a warp have finished the
// phase, the streams are aligned positionally (the i-th access of every lane
// belongs to the same warp-wide instruction, which is the SIMT lock-step
// semantics) and the warp is "retired": coalescing, bank conflicts, texture
// cache behaviour and atomic serialisation are computed per warp
// instruction.
//
// A Run phase must perform a bounded number of metered operations per lane
// (maxStreamLen); long data loops belong outside Run, one chunk per phase —
// which is also how the tiled kernels of the paper are structured.
type Kernel func(b *Block)

// maxStreamLen bounds the per-lane access stream length within one Run
// phase. Exceeding it indicates a kernel phase that should be split into
// chunks.
const maxStreamLen = 8192

// access kinds recorded in lane streams.
const (
	opGldF32 = iota // global load, 4 bytes
	opGstF32        // global store, 4 bytes
	opGldI32
	opGstI32
	opShLd // shared load
	opShSt // shared store
	opTexF32
	opAtomAddF32
	opAtomAddI32
	opGldU64 // global load, 8 bytes
	opGstU64 // global store, 8 bytes
	opShAtom // shared-memory atomic RMW
)

// rec is one metered per-lane operation.
type rec struct {
	buf  bufferID
	idx  int32
	kind uint8
}

// Block is the kernel-side handle to one thread block. It is not safe for
// concurrent use; each block executes on a single host goroutine.
type Block struct {
	dev *Device
	cfg *LaunchConfig

	idx    Dim3 // block index within grid
	linear int  // linear block index
	dim    Dim3 // block dimensions

	threads int
	warps   int

	meter *Meter

	// Shared memory arena.
	sharedUsed  int
	sharedLimit int

	// Per-lane streams for the warp currently executing.
	streams    [][]rec
	laneCharge []float64
	laneActive []bool

	// Per-warp divergence charges added via Thread.Diverge.
	divergeExtra float64

	// Texture tag caches, one per texture bound on this block object. The
	// map and its texTags persist across blocks and launches (the Block is
	// pooled); texUsed tracks which caches the current block actually
	// touched so reset invalidates only those instead of re-allocating.
	texCaches map[bufferID]*texTags
	texUsed   []*texTags

	// stats is the owning worker's cross-block atomic histogram; every
	// atomic op notes its address here directly (see statTable.note). Set
	// by the launch loop before the block runs.
	stats *statTable

	// maxStream is the high-water per-lane stream length over this block
	// object's lifetime; putBlock feeds it back to the device so the next
	// launch sizes fresh streams to fit without regrowth.
	maxStream int

	// scratch for warp retirement
	segScratch  []int64
	bankScratch [64]int16

	// The handles Run and RunWarps pass to their closures. They live in the
	// pooled Block, so a phase allocates nothing; a closure must not keep
	// its *Thread or *Warp past the call.
	thread Thread
	warp   Warp

	// Backing memory for the shared arrays and per-thread register arrays
	// of the current block (SharedF32, RegsU64, ...). It lives in the
	// pooled Block and reset reclaims it, so every block of a launch reuses
	// the same few cache-warm kilobytes instead of allocating fresh ones.
	f32 arena[float32]
	i32 arena[int32]
	u64 arena[uint64]
}

// arena hands out zeroed slices carved from one backing array.
type arena[T float32 | int32 | uint64] struct {
	buf  []T
	used int
}

// take returns a zeroed slice of n elements whose capacity is n, so an
// append cannot run into its neighbour.
func (a *arena[T]) take(n int) []T {
	if a.used+n > len(a.buf) {
		// Slices already taken keep the old array alive. The new one is
		// at least twice as large, so a block's demand is met from one
		// array after a few blocks.
		a.buf = make([]T, max(2*len(a.buf), a.used+n, 64))
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	clear(s)
	return s
}

// minStreamCap is the smallest initial per-lane stream capacity.
const minStreamCap = 64

// blockPool recycles Block objects (with their stream, histogram and
// texture-tag storage) across launches. One launch runs thousands of blocks
// through a handful of pooled objects, so steady state allocates nothing
// per block.
var blockPool sync.Pool

func getBlock(dev *Device, cfg *LaunchConfig) *Block {
	b, _ := blockPool.Get().(*Block)
	if b == nil {
		b = &Block{
			meter:     &Meter{},
			texCaches: map[bufferID]*texTags{},
		}
	}
	b.init(dev, cfg)
	return b
}

func putBlock(b *Block) {
	b.dev.noteStreamHighWater(b.maxStream)
	b.cfg = nil
	b.stats = nil // worker-scoped; never outlives the launch
	if len(b.texCaches) > 16 {
		// One launch binding many textures should not pin tag arrays for
		// every buffer id it ever saw.
		b.texCaches = map[bufferID]*texTags{}
		b.texUsed = b.texUsed[:0]
	}
	blockPool.Put(b)
}

// init prepares a fresh or pooled Block for a launch.
func (b *Block) init(dev *Device, cfg *LaunchConfig) {
	ws := dev.WarpSize
	b.dev = dev
	b.cfg = cfg
	b.dim = cfg.Block
	b.threads = cfg.Threads()
	b.warps = (b.threads + ws - 1) / ws
	b.sharedLimit = dev.SharedMemPerBlock()
	b.maxStream = 0
	if cap(b.streams) >= ws {
		b.streams = b.streams[:ws]
		b.laneCharge = b.laneCharge[:ws]
		b.laneActive = b.laneActive[:ws]
	} else {
		b.streams = make([][]rec, ws)
		b.laneCharge = make([]float64, ws)
		b.laneActive = make([]bool, ws)
	}
	// Size fresh lane streams from the device's high-water hint: launches
	// after the first start at the observed per-phase depth instead of
	// regrowing from a fixed small capacity on every block.
	hint := int(dev.streamHint.Load())
	if hint < minStreamCap {
		hint = minStreamCap
	}
	if hint > maxStreamLen {
		hint = maxStreamLen
	}
	for i := range b.streams {
		if cap(b.streams[i]) < hint {
			b.streams[i] = make([]rec, 0, hint)
		} else {
			b.streams[i] = b.streams[i][:0]
		}
	}
}

// reset prepares the block object for reuse with a new block index.
func (b *Block) reset(linear int) {
	b.linear = linear
	x, y, z := b.cfg.Grid.Coords(linear)
	b.idx = Dim3{X: x, Y: y, Z: z}
	b.sharedUsed = 0
	b.f32.used, b.i32.used, b.u64.used = 0, 0, 0
	b.divergeExtra = 0
	*b.meter = Meter{}
	for _, tc := range b.texUsed {
		tc.reset()
		tc.inUse = false
	}
	b.texUsed = b.texUsed[:0]
}

// noteAtomic records one atomic operation on the packed address key in the
// worker's cross-block histogram.
func (b *Block) noteAtomic(key uint64) {
	b.stats.note(key, int32(b.linear))
}

// texCache returns the (reset) texture tag cache for a buffer, creating or
// resizing it if the pooled block last ran on a device with a different
// cache geometry.
func (b *Block) texCache(id bufferID) *texTags {
	tc := b.texCaches[id]
	if tc == nil || len(tc.tags) != texLines(b.dev) {
		tc = newTexTags(b.dev)
		b.texCaches[id] = tc
	}
	if !tc.inUse {
		tc.inUse = true
		b.texUsed = append(b.texUsed, tc)
	}
	return tc
}

// Idx returns the block index within the grid (blockIdx).
func (b *Block) Idx() Dim3 { return b.idx }

// LinearIdx returns the linear block index within the grid.
func (b *Block) LinearIdx() int { return b.linear }

// Dim returns the block dimensions (blockDim).
func (b *Block) Dim() Dim3 { return b.dim }

// Threads returns the number of threads in the block.
func (b *Block) Threads() int { return b.threads }

// Warps returns the number of warps in the block.
func (b *Block) Warps() int { return b.warps }

// GridDim returns the grid dimensions (gridDim).
func (b *Block) GridDim() Dim3 { return b.cfg.Grid }

// Device returns the device executing the block.
func (b *Block) Device() *Device { return b.dev }

// SharedF32 allocates a zeroed shared-memory array of n float32 values for
// this block, the analogue of __shared__ float s[n]. It panics if the
// block's shared memory budget is exceeded, like a launch failure would.
// The array is valid until the block ends; the next block reuses its
// memory.
func (b *Block) SharedF32(n int) []float32 {
	b.takeShared(4 * n)
	return b.f32.take(n)
}

// SharedI32 allocates a zeroed shared-memory array of n int32 values.
func (b *Block) SharedI32(n int) []int32 {
	b.takeShared(4 * n)
	return b.i32.take(n)
}

// RegsF32 returns a zeroed array of n float32 values for per-thread values
// that live across phases: registers on the device, one slot per thread
// index on the host. It is not metered and, like a shared array, is valid
// until the block ends.
func (b *Block) RegsF32(n int) []float32 { return b.f32.take(n) }

// RegsI32 is RegsF32 for int32 values.
func (b *Block) RegsI32(n int) []int32 { return b.i32.take(n) }

// RegsU64 is RegsF32 for uint64 values, such as per-thread RNG states.
func (b *Block) RegsU64(n int) []uint64 { return b.u64.take(n) }

func (b *Block) takeShared(bytes int) {
	b.sharedUsed += bytes
	if b.sharedUsed > b.sharedLimit {
		panic(fmt.Sprintf("cuda: block shared memory overflow: %d > %d bytes on %s",
			b.sharedUsed, b.sharedLimit, b.dev.Name))
	}
}

// SharedUsed reports the shared memory dynamically allocated so far.
func (b *Block) SharedUsed() int { return b.sharedUsed }

// Sync models __syncthreads(). Because Run phases already execute the whole
// block to completion before the next phase starts, Sync is a memory no-op;
// it meters the barrier cost.
func (b *Block) Sync() {
	b.meter.Barriers++
	// A barrier costs roughly one instruction per warp plus pipeline drain.
	b.meter.ComputeIssues += float64(b.warps) * 2
}

// Failf aborts the launch with a formatted error: the kernel-side analogue
// of asserting and trapping. The launch's Launch call returns the error
// (annotated with the block index) instead of a result; the process does
// not panic.
func (b *Block) Failf(format string, args ...any) {
	panic(kernelFailure{fmt.Errorf("cuda: kernel error in block %d: %s",
		b.linear, fmt.Sprintf(format, args...))})
}

// Run executes one per-thread phase over all threads of the block, warp by
// warp, and retires each warp's metered operations.
func (b *Block) Run(f func(t *Thread)) {
	b.meter.RunPhases++
	ws := b.dev.WarpSize
	th := &b.thread
	th.b = b
	for w := 0; w < b.warps; w++ {
		base := w * ws
		active := 0
		for lane := 0; lane < ws; lane++ {
			b.streams[lane] = b.streams[lane][:0]
			b.laneCharge[lane] = 0
			tid := base + lane
			if tid >= b.threads {
				b.laneActive[lane] = false
				continue
			}
			b.laneActive[lane] = true
			active++
			th.tid = tid
			th.lane = lane
			f(th)
		}
		b.retireWarp(active)
	}
}

// retireWarp aligns the lane streams positionally and charges the metered
// cost of each warp-wide instruction.
func (b *Block) retireWarp(activeLanes int) {
	if activeLanes == 0 {
		return
	}
	m := b.meter
	ws := b.dev.WarpSize

	// Arithmetic: SIMT lock-step means the warp issues the maximum of the
	// per-lane charges (all lanes step together until the slowest path is
	// done).
	maxCharge := 0.0
	maxLen := 0
	for lane := 0; lane < ws; lane++ {
		if !b.laneActive[lane] {
			continue
		}
		if b.laneCharge[lane] > maxCharge {
			maxCharge = b.laneCharge[lane]
		}
		if l := len(b.streams[lane]); l > maxLen {
			maxLen = l
		}
	}
	if maxLen > b.maxStream {
		b.maxStream = maxLen
	}
	m.ComputeIssues += maxCharge
	m.DivergentExtra += b.divergeExtra
	b.divergeExtra = 0

	// Memory: group records position by position. Within a position,
	// records with the same kind and buffer form one warp instruction.
	for pos := 0; pos < maxLen; pos++ {
		b.retirePosition(pos)
	}
	m.LaneOps += int64(activeLanes)
}

// retirePosition processes the records at one stream position across all
// lanes of the current warp.
func (b *Block) retirePosition(pos int) {
	m := b.meter
	ws := b.dev.WarpSize
	segBytes := int64(b.dev.SegmentBytes)

	// Gather the lanes that have a record at this position. Divergent code
	// may leave different kinds at the same position in different lanes;
	// each (kind, buf) group is a separate instruction issue.
	type group struct {
		kind  uint8
		buf   bufferID
		count int
	}
	var groups [4]group // small fixed set; kernels rarely mix >4 groups
	ngroups := 0

	for lane := 0; lane < ws; lane++ {
		s := b.streams[lane]
		if pos >= len(s) {
			continue
		}
		r := s[pos]
		found := false
		for g := 0; g < ngroups; g++ {
			if groups[g].kind == r.kind && groups[g].buf == r.buf {
				groups[g].count++
				found = true
				break
			}
		}
		if !found {
			if ngroups < len(groups) {
				groups[ngroups] = group{kind: r.kind, buf: r.buf, count: 1}
				ngroups++
			} else {
				// Degenerate divergence: charge as its own serialized issue.
				groups[0].count++
			}
		}
	}

	for g := 0; g < ngroups; g++ {
		kind := groups[g].kind
		buf := groups[g].buf
		switch kind {
		case opGldU64, opGstU64:
			tx := b.countSegments(pos, kind, buf, segBytes, 8)
			if kind == opGldU64 {
				m.GlobalLoadInstr++
				m.GlobalLoadTx += int64(tx)
				m.GlobalLoadOps += int64(groups[g].count)
			} else {
				m.GlobalStoreInst++
				m.GlobalStoreTx += int64(tx)
				m.GlobalStoreOps += int64(groups[g].count)
			}
		case opGldF32, opGldI32, opGstF32, opGstI32:
			tx := b.countSegments(pos, kind, buf, segBytes, 4)
			if kind == opGldF32 || kind == opGldI32 {
				m.GlobalLoadInstr++
				m.GlobalLoadTx += int64(tx)
				m.GlobalLoadOps += int64(groups[g].count)
			} else {
				m.GlobalStoreInst++
				m.GlobalStoreTx += int64(tx)
				m.GlobalStoreOps += int64(groups[g].count)
			}
		case opShLd, opShSt:
			m.SharedInstr++
			m.SharedOps += int64(groups[g].count)
			if deg := b.bankConflictDegree(pos, kind, buf); deg > 1 {
				m.SharedReplays += float64(deg - 1)
			}
		case opShAtom:
			m.SharedInstr++
			m.SharedOps += int64(groups[g].count)
			// Shared atomics serialise per conflicting address (lock-step
			// replays), unlike plain shared reads which broadcast.
			m.SharedReplays += float64(b.atomicConflicts(pos, kind, buf))
			if deg := b.bankConflictDegree(pos, kind, buf); deg > 1 {
				m.SharedReplays += float64(deg - 1)
			}
		case opTexF32:
			m.TexInstr++
			b.retireTexture(pos, buf)
		case opAtomAddF32, opAtomAddI32:
			m.AtomicInstr++
			m.AtomicOps += int64(groups[g].count)
			// Intra-warp conflicts serialise: max multiplicity per address.
			extra := b.atomicConflicts(pos, kind, buf)
			m.AtomicSerialExtra += float64(extra)
			// Atomics are read-modify-write transactions in DRAM.
			tx := b.countSegments(pos, kind, buf, segBytes, 4)
			m.GlobalLoadTx += int64(tx)
			m.GlobalStoreTx += int64(tx)
		}
	}
}

// countSegments returns the number of distinct memory segments touched at
// one position by records matching (kind, buf) — the coalesced transaction
// count of one warp-wide memory instruction.
func (b *Block) countSegments(pos int, kind uint8, buf bufferID, segBytes int64, elemBytes int64) int {
	b.segScratch = b.segScratch[:0]
	ws := b.dev.WarpSize
	for lane := 0; lane < ws; lane++ {
		s := b.streams[lane]
		if pos >= len(s) {
			continue
		}
		r := s[pos]
		if r.kind != kind || r.buf != buf {
			continue
		}
		seg := int64(r.idx) * elemBytes / segBytes
		dup := false
		for _, have := range b.segScratch {
			if have == seg {
				dup = true
				break
			}
		}
		if !dup {
			b.segScratch = append(b.segScratch, seg)
		}
	}
	return len(b.segScratch)
}

// bankConflictDegree returns the replay count of one shared-memory warp
// instruction: the maximum number of *distinct addresses* hitting the same
// bank (32 banks, 4-byte interleave). Lanes reading the same address
// broadcast and do not conflict, matching the hardware.
func (b *Block) bankConflictDegree(pos int, kind uint8, buf bufferID) int {
	for i := range b.bankScratch {
		b.bankScratch[i] = 0
	}
	b.segScratch = b.segScratch[:0] // distinct addresses seen
	ws := b.dev.WarpSize
	worst := int16(0)
	for lane := 0; lane < ws; lane++ {
		s := b.streams[lane]
		if pos >= len(s) {
			continue
		}
		r := s[pos]
		if r.kind != kind || r.buf != buf {
			continue
		}
		addr := int64(r.idx)
		dup := false
		for _, have := range b.segScratch {
			if have == addr {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		b.segScratch = append(b.segScratch, addr)
		bank := int(r.idx) & 31
		b.bankScratch[bank]++
		if b.bankScratch[bank] > worst {
			worst = b.bankScratch[bank]
		}
	}
	return int(worst)
}

// atomicConflicts returns the extra serialised operations of one atomic warp
// instruction: sum over addresses of (multiplicity - 1).
func (b *Block) atomicConflicts(pos int, kind uint8, buf bufferID) int {
	type ac struct {
		addr int64
		n    int
	}
	var list [32]ac
	nlist := 0
	ws := b.dev.WarpSize
	for lane := 0; lane < ws; lane++ {
		s := b.streams[lane]
		if pos >= len(s) {
			continue
		}
		r := s[pos]
		if r.kind != kind || r.buf != buf {
			continue
		}
		addr := int64(r.idx)
		found := false
		for i := 0; i < nlist; i++ {
			if list[i].addr == addr {
				list[i].n++
				found = true
				break
			}
		}
		if !found && nlist < len(list) {
			list[nlist] = ac{addr: addr, n: 1}
			nlist++
		}
	}
	extra := 0
	for i := 0; i < nlist; i++ {
		extra += list[i].n - 1
	}
	return extra
}

// retireTexture probes the block's texture tag cache for each distinct
// cache line touched at this position. Hits cost texture-cache latency;
// misses fetch a line and count as global transactions.
func (b *Block) retireTexture(pos int, buf bufferID) {
	tc := b.texCache(buf)
	m := b.meter
	lineBytes := int64(b.dev.TextureLineBytes)
	ws := b.dev.WarpSize
	b.segScratch = b.segScratch[:0]
	n := 0
	for lane := 0; lane < ws; lane++ {
		s := b.streams[lane]
		if pos >= len(s) {
			continue
		}
		r := s[pos]
		if r.kind != opTexF32 || r.buf != buf {
			continue
		}
		n++
		line := int64(r.idx) * 4 / lineBytes
		dup := false
		for _, have := range b.segScratch {
			if have == line {
				dup = true
				break
			}
		}
		if !dup {
			b.segScratch = append(b.segScratch, line)
		}
	}
	m.TexFetches += int64(n)
	missed := false
	for _, line := range b.segScratch {
		if b.probeTex(tc, line) {
			missed = true
		}
	}
	if missed {
		m.TexMissInstr++
	}
}

// probeTex probes the tag cache for one line of a texture instruction,
// counts the hit or miss, and reports a miss.
func (b *Block) probeTex(tc *texTags, line int64) bool {
	if tc.probe(line) {
		b.meter.TexHits++
		return false
	}
	b.meter.TexMisses++
	return true
}

// record appends one metered operation to a lane stream.
func (b *Block) record(lane int, kind uint8, buf bufferID, idx int) {
	s := b.streams[lane]
	if len(s) >= maxStreamLen {
		panic(fmt.Sprintf(
			"cuda: lane access stream exceeded %d operations in one Run phase; split the phase into chunks",
			maxStreamLen))
	}
	b.streams[lane] = append(s, rec{buf: buf, idx: int32(idx), kind: kind})
}
