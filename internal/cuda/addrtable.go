package cuda

import "sync"

// statTable is an open-addressing hash table from packed atomic address keys
// (see atomicKey) to (operation count, touching-block count) pairs: the
// cross-block atomic histogram of one launch worker. It replaces the
// map[uint64]int32 the block previously carried plus the map[uint64]addrStat
// the worker folded it into — atomic-heavy launches visit every distinct
// address once per block, and the Go-map insert-and-fold on that path
// dominated the host-side profile of the deposit kernels. Blocks now write
// straight into their worker's table via note, which deduplicates the
// touching-block count with a last-block marker instead of a per-block
// histogram, so steady-state blocks allocate and clear nothing.
//
// Key 0 marks an empty slot. That sentinel is safe because buffer ids start
// at 1 (buffer.go allocates them with nextBufferID.Add(1)), so every real
// key has a non-zero id in its high bits: atomicKey(id, i) >= 1<<40.
type statTable struct {
	keys   []uint64
	ops    []int64
	blocks []int32
	last   []int32 // linear block index + 1 of the last toucher; 0 = none
	n      int     // occupied slots
}

// addrTableMinCap is the initial capacity; must be a power of two.
const addrTableMinCap = 64

// addrTableMaxPooled is the largest capacity a table may have to return to
// statPool; a launch that grew one past it drops it, so a few huge
// launches do not pin their tables for every later small one.
const addrTableMaxPooled = 1 << 16

// statPool recycles the workers' tables across launches, so an
// atomic-heavy launch does not regrow one from addrTableMinCap each time.
var statPool sync.Pool

// getStatTable returns an empty table, pooled when one is available.
func getStatTable() *statTable {
	if t, _ := statPool.Get().(*statTable); t != nil {
		return t
	}
	return newStatTable()
}

// putStatTable empties t and returns it to statPool. The caller must not
// use t afterwards.
func putStatTable(t *statTable) {
	if len(t.keys) > addrTableMaxPooled {
		return
	}
	if t.n != 0 {
		clear(t.keys)
		clear(t.ops)
		clear(t.blocks)
		clear(t.last)
		t.n = 0
	}
	statPool.Put(t)
}

func newStatTable() *statTable {
	return &statTable{
		keys:   make([]uint64, addrTableMinCap),
		ops:    make([]int64, addrTableMinCap),
		blocks: make([]int32, addrTableMinCap),
		last:   make([]int32, addrTableMinCap),
	}
}

// slot returns the index holding key, or the empty slot where it belongs.
func (t *statTable) slot(key uint64) int {
	mask := uint64(len(t.keys) - 1)
	h := key * 0x9e3779b97f4a7c15 // Fibonacci scrambling
	i := (h ^ h>>32) & mask
	for t.keys[i] != 0 && t.keys[i] != key {
		i = (i + 1) & mask
	}
	return int(i)
}

// note records one atomic operation on key from the given block. The block
// count increments only when the block differs from the slot's last toucher;
// each worker runs its blocks one at a time, so a block's operations are
// contiguous and the single marker is exact.
func (t *statTable) note(key uint64, block int32) {
	if 4*t.n >= 3*len(t.keys) {
		t.grow()
	}
	i := t.slot(key)
	if t.keys[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.ops[i]++
	if t.last[i] != block+1 {
		t.last[i] = block + 1
		t.blocks[i]++
	}
}

// add folds ops operations from blocks distinct blocks into key's entry —
// the worker-merge step after a launch.
func (t *statTable) add(key uint64, ops int64, blocks int32) {
	if 4*t.n >= 3*len(t.keys) {
		t.grow()
	}
	i := t.slot(key)
	if t.keys[i] == 0 {
		t.keys[i] = key
		t.n++
	}
	t.ops[i] += ops
	t.blocks[i] += blocks
}

func (t *statTable) grow() {
	oldKeys, oldOps, oldBlocks, oldLast := t.keys, t.ops, t.blocks, t.last
	t.keys = make([]uint64, 2*len(oldKeys))
	t.ops = make([]int64, 2*len(oldOps))
	t.blocks = make([]int32, 2*len(oldBlocks))
	t.last = make([]int32, 2*len(oldLast))
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		j := t.slot(k)
		t.keys[j] = k
		t.ops[j] = oldOps[i]
		t.blocks[j] = oldBlocks[i]
		t.last[j] = oldLast[i]
	}
}

// len returns the number of distinct keys.
func (t *statTable) len() int { return t.n }

// each calls f for every (key, ops, blocks) entry in table probe order.
// Callers must fold the values with order-insensitive arithmetic; the launch
// merge uses integer sums, so probe order cannot perturb results.
func (t *statTable) each(f func(key uint64, ops int64, blocks int32)) {
	if t.n == 0 {
		return
	}
	for i, k := range t.keys {
		if k != 0 {
			f(k, t.ops[i], t.blocks[i])
		}
	}
}
