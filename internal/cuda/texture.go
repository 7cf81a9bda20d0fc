package cuda

// Texture is a read-only binding of a float32 device buffer to the texture
// path. Fetches through a Texture go via a small per-SM read-only cache
// (modelled as a per-block direct-mapped tag cache), which is how the paper's
// versions (6) and (8) accelerate random-number and heuristic reads.
type Texture struct {
	buf *F32
}

// BindTexture creates a texture reference over buf, the analogue of
// cudaBindTexture.
func BindTexture(buf *F32) *Texture { return &Texture{buf: buf} }

// Buf returns the underlying buffer.
func (t *Texture) Buf() *F32 { return t.buf }

// Len returns the element count of the underlying buffer.
func (t *Texture) Len() int { return t.buf.Len() }

// texTags is a direct-mapped tag store modelling the texture cache. It is
// deterministic: the same access sequence yields the same hits and misses.
// Instances are pooled with their Block: inUse marks a cache the current
// block has touched, so Block.reset invalidates exactly those (see
// Block.texCache).
type texTags struct {
	tags  []int64
	inUse bool
}

func texLines(dev *Device) int {
	lines := dev.TextureCacheBytes / dev.TextureLineBytes
	if lines < 1 {
		lines = 1
	}
	return lines
}

func newTexTags(dev *Device) *texTags {
	t := &texTags{tags: make([]int64, texLines(dev))}
	t.reset()
	return t
}

// reset invalidates every line, returning the cache to its cold state.
func (t *texTags) reset() {
	for i := range t.tags {
		t.tags[i] = -1
	}
}

// probe checks whether line is cached, inserting it if not, and reports the
// hit.
func (t *texTags) probe(line int64) bool {
	slot := line % int64(len(t.tags))
	if t.tags[slot] == line {
		return true
	}
	t.tags[slot] = line
	return false
}

// probeRow probes, in ascending order, every line that a row of bytes
// touches: the row starts in line and ends end bytes after that line's
// start (end > 0). It counts the hits and misses. It probes what probe
// would, line by line, but divides once per row instead of once per line:
// the first line's slot is line % len(tags), and the slot then steps with
// the line and wraps by compare-and-reset (the cache has 256 or 384 slots,
// so a mask cannot stand in for the modulo).
func (t *texTags) probeRow(line, end, lineBytes int64) (hits, misses int64) {
	tags := t.tags
	slot := int(line % int64(len(tags)))
	for {
		if tags[slot] == line {
			hits++
		} else {
			tags[slot] = line
			misses++
		}
		if end -= lineBytes; end <= 0 {
			return hits, misses
		}
		line++
		if slot++; slot == len(tags) {
			slot = 0
		}
	}
}
