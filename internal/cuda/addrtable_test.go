package cuda

import (
	"math/rand"
	"testing"
)

func TestStatTableNoteAndEach(t *testing.T) {
	tab := newStatTable()
	wantOps := map[uint64]int64{}
	wantBlocks := map[uint64]int32{}
	r := rand.New(rand.NewSource(7))
	keys := make([]uint64, 50)
	for i := range keys {
		keys[i] = atomicKey(bufferID(1+r.Intn(5)), r.Intn(1000))
	}
	// Blocks run one at a time per worker, so every block's notes are
	// contiguous — mirror that: a run of notes per block index.
	touched := map[uint64]bool{}
	block := int32(0)
	for i := 0; i < 10000; i++ {
		if r.Intn(100) == 0 { // next block
			block++
			touched = map[uint64]bool{}
		}
		k := keys[r.Intn(len(keys))]
		tab.note(k, block)
		wantOps[k]++
		if !touched[k] {
			touched[k] = true
			wantBlocks[k]++
		}
	}
	if tab.len() != len(wantOps) {
		t.Fatalf("len = %d, want %d distinct keys", tab.len(), len(wantOps))
	}
	gotOps := map[uint64]int64{}
	gotBlocks := map[uint64]int32{}
	tab.each(func(k uint64, ops int64, blocks int32) {
		gotOps[k] = ops
		gotBlocks[k] = blocks
	})
	for k := range wantOps {
		if gotOps[k] != wantOps[k] {
			t.Errorf("key %#x: ops %d, want %d", k, gotOps[k], wantOps[k])
		}
		if gotBlocks[k] != wantBlocks[k] {
			t.Errorf("key %#x: blocks %d, want %d", k, gotBlocks[k], wantBlocks[k])
		}
	}
	if len(gotOps) != len(wantOps) {
		t.Errorf("each visited %d keys, want %d", len(gotOps), len(wantOps))
	}
}

func TestStatTableGrowKeepsCounts(t *testing.T) {
	tab := newStatTable()
	// Push well past the 3/4 load factor of the initial capacity so the
	// table rehashes several times; three blocks each touch every key.
	const distinct = 1000
	for block := int32(0); block < 3; block++ {
		for i := 0; i < distinct; i++ {
			tab.note(atomicKey(3, i), block)
		}
	}
	if tab.len() != distinct {
		t.Fatalf("len = %d, want %d", tab.len(), distinct)
	}
	tab.each(func(k uint64, ops int64, blocks int32) {
		if ops != 3 || blocks != 3 {
			t.Fatalf("key %#x: ops %d blocks %d, want 3/3", k, ops, blocks)
		}
	})
}

func TestStatTableAddMergesWorkers(t *testing.T) {
	a, b := newStatTable(), newStatTable()
	a.note(atomicKey(1, 5), 0)
	a.note(atomicKey(1, 5), 0)
	a.note(atomicKey(1, 6), 1)
	b.note(atomicKey(1, 5), 2)
	b.note(atomicKey(1, 7), 3)
	b.each(func(k uint64, ops int64, blocks int32) { a.add(k, ops, blocks) })
	if a.len() != 3 {
		t.Fatalf("merged len = %d, want 3", a.len())
	}
	got := map[uint64][2]int64{}
	a.each(func(k uint64, ops int64, blocks int32) { got[k] = [2]int64{ops, int64(blocks)} })
	if got[atomicKey(1, 5)] != [2]int64{3, 2} {
		t.Errorf("key (1,5) = %v, want ops 3 from 2 blocks", got[atomicKey(1, 5)])
	}
	if got[atomicKey(1, 6)] != [2]int64{1, 1} {
		t.Errorf("key (1,6) = %v, want ops 1 from 1 block", got[atomicKey(1, 6)])
	}
	if got[atomicKey(1, 7)] != [2]int64{1, 1} {
		t.Errorf("key (1,7) = %v, want ops 1 from 1 block", got[atomicKey(1, 7)])
	}
}

func TestAtomicKeyNeverZero(t *testing.T) {
	// Buffer ids start at 1, so the empty-slot sentinel 0 can never collide
	// with a real key.
	if k := atomicKey(1, 0); k == 0 {
		t.Fatal("atomicKey(1, 0) = 0, collides with the empty sentinel")
	}
	if k := atomicKey(1, -1); k == 0 {
		t.Fatal("atomicKey(1, -1) = 0")
	}
}

func TestLaneSetCountsDistinct(t *testing.T) {
	var s laneSet
	n := 0
	// 32 inserts with duplicates, including negatives and zero.
	vals := []int64{0, 1, 2, 1, 0, -1, -1, 1 << 40, 1<<40 + 1, 1 << 40}
	for _, v := range vals {
		if s.insert(v) {
			n++
		}
	}
	if n != 6 {
		t.Fatalf("distinct = %d, want 6", n)
	}
}

func TestStreamHintGrowsMonotonically(t *testing.T) {
	dev := TeslaC1060()
	dev.noteStreamHighWater(100)
	if got := dev.streamHint.Load(); got != 128 {
		t.Fatalf("hint after 100 = %d, want next power of two 128", got)
	}
	dev.noteStreamHighWater(50) // below current hint: no shrink
	if got := dev.streamHint.Load(); got != 128 {
		t.Errorf("hint shrank to %d", got)
	}
	dev.noteStreamHighWater(minStreamCap) // at the floor: ignored
	if got := dev.streamHint.Load(); got != 128 {
		t.Errorf("hint changed to %d on floor-sized high water", got)
	}
	dev.noteStreamHighWater(1 << 12)
	if got := dev.streamHint.Load(); got != 1<<12 {
		t.Errorf("hint after 4096 = %d", got)
	}
}

func TestBlockPoolReusesTexCaches(t *testing.T) {
	dev := TeslaC1060()
	cfg := LaunchConfig{Grid: D1(1), Block: D1(32)}
	blk := getBlock(dev, &cfg)
	caches := blk.texCaches
	if blk.stats != nil {
		t.Error("fresh block carries a stats table; the launch loop owns it")
	}
	putBlock(blk)
	// The pool is best-effort, but in a single-goroutine test the same
	// object comes back with its cache map intact.
	blk2 := getBlock(dev, &cfg)
	if blk2 == blk && len(blk2.texCaches) != len(caches) {
		t.Error("pooled block dropped its texture caches")
	}
	putBlock(blk2)
}

// TestPutStatTableEmpties checks that a table handed back to statPool is
// as empty as a new one: a stale key would make slot probing skip a free
// slot, and a stale operation, block or last-toucher count would leak into
// the next launch's histogram.
func TestPutStatTableEmpties(t *testing.T) {
	tab := newStatTable()
	for i := 0; i < 500; i++ { // grows past addrTableMinCap
		tab.note(atomicKey(3, i%200), int32(i/7))
	}
	size := len(tab.keys)
	putStatTable(tab)
	if tab.n != 0 || len(tab.keys) != size {
		t.Fatalf("after put: n = %d, %d slots; want 0 and %d", tab.n, len(tab.keys), size)
	}
	for i := range tab.keys {
		if tab.keys[i] != 0 || tab.ops[i] != 0 || tab.blocks[i] != 0 || tab.last[i] != 0 {
			t.Fatalf("slot %d not empty after put: key %d ops %d blocks %d last %d",
				i, tab.keys[i], tab.ops[i], tab.blocks[i], tab.last[i])
		}
	}
}
