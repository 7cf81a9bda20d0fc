package cuda

import (
	"math/rand"
	"slices"
	"testing"
)

// TestProbeRowMatchesProbe compares the stepped row probe with probing each
// line at its slot line % len(tags), on the 256-slot C1060 and the 384-slot
// M2050 texture caches: the same hits, misses and tags after every row. The
// rows span one to five lines, start anywhere in a line, at the first slot,
// just before the last slot and across the wrap to slot 0, in the first and
// in later laps of the cache, and then at random.
func TestProbeRowMatchesProbe(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, dev := range []*Device{TeslaC1060(), TeslaM2050()} {
		stepped, ref := newTexTags(dev), newTexTags(dev)
		slots := int64(len(ref.tags))
		if want := int64(dev.TextureCacheBytes / dev.TextureLineBytes); slots != want {
			t.Fatalf("%s: %d slots, want %d", dev.Name, slots, want)
		}
		lineBytes := int64(dev.TextureLineBytes)
		wrapped, hits, misses := false, false, false
		row := func(line, end int64) {
			t.Helper()
			gotH, gotM := stepped.probeRow(line, end, lineBytes)
			var wantH, wantM int64
			last := line + (end-1)/lineBytes
			for l := line; l <= last; l++ {
				if ref.probe(l) {
					wantH++
				} else {
					wantM++
				}
			}
			if gotH != wantH || gotM != wantM || !slices.Equal(stepped.tags, ref.tags) {
				t.Fatalf("%s: row of %d bytes from line %d: %d hits, %d misses, want %d, %d (tags equal %v)",
					dev.Name, end, line, gotH, gotM, wantH, wantM, slices.Equal(stepped.tags, ref.tags))
			}
			wrapped = wrapped || line%slots > last%slots
			hits, misses = hits || wantH > 0, misses || wantM > 0
		}
		for _, lap := range []int64{0, 1, 7} {
			for _, slot := range []int64{0, 1, slots / 2, slots - 5, slots - 2, slots - 1} {
				for _, off := range []int64{0, 4, lineBytes - 4} {
					for _, lanes := range []int64{1, 2, 8, 9, 31, 32} {
						row(lap*slots+slot, off+4*lanes)
					}
				}
			}
		}
		for i := 0; i < 2000; i++ {
			row(r.Int63n(10*slots), 4*(r.Int63n(lineBytes/4)+1+r.Int63n(32)))
		}
		if !wrapped || !hits || !misses {
			t.Errorf("%s: vacuous sweep: wrapped %v, hits %v, misses %v", dev.Name, wrapped, hits, misses)
		}
	}
}
