package hw

// L2Cache models the MPM's software-controlled second-level cache as a
// direct-mapped tag array over 32-byte lines. It exists for two purposes:
// charging realistic hit/miss cycle costs on every memory reference, and
// reporting hit/miss statistics for the locality experiments (Section
// 5.2). Data always lives in PhysMem; the cache carries no contents.
//
// The tag array is sparse: a directory of fixed-size chunks, each
// allocated by the first miss into its range. An absent chunk reads as
// all-invalid, so a machine pays host memory for the part of its cache
// a run touches, not for the cache's capacity (the default 8 MB cache
// has 262144 lines; a short scenario touches a few dozen).
type L2Cache struct {
	lineShift uint
	lines     uint32
	chunks    []*l2Chunk // nil = every line in the chunk invalid
	hits      uint64
	misses    uint64
}

// l2ChunkShift sets the tag-store chunk size: 1024 tags (4 KiB), the
// lines of eight consecutive pages.
const (
	l2ChunkShift = 10
	l2ChunkLines = 1 << l2ChunkShift
	l2ChunkMask  = l2ChunkLines - 1
)

// l2Chunk holds tag+1 per line, 0 = invalid.
type l2Chunk [l2ChunkLines]uint32

// L2LineSize is the cache line size in bytes (the paper's hardware).
const L2LineSize = 32

// NewL2Cache returns a cache of the given total size in bytes, which must
// be a positive multiple of the line size.
func NewL2Cache(size uint32) *L2Cache {
	if size == 0 || size%L2LineSize != 0 {
		panic("hw: bad L2 cache size")
	}
	lines := size / L2LineSize
	nchunks := (lines + l2ChunkLines - 1) >> l2ChunkShift
	return &L2Cache{lineShift: 5, lines: lines, chunks: make([]*l2Chunk, nchunks)}
}

// tag reports the stored tag of line index idx (0 = invalid).
func (c *L2Cache) tag(idx uint32) uint32 {
	if ch := c.chunks[idx>>l2ChunkShift]; ch != nil {
		return ch[idx&l2ChunkMask]
	}
	return 0
}

// setTag stores a non-zero tag, allocating the line's chunk on demand.
func (c *L2Cache) setTag(idx, tag uint32) {
	ch := c.chunks[idx>>l2ChunkShift]
	if ch == nil {
		ch = new(l2Chunk)
		c.chunks[idx>>l2ChunkShift] = ch
	}
	ch[idx&l2ChunkMask] = tag
}

// Access simulates a reference to physical address pa and returns the
// cycle charge (hit or miss).
func (c *L2Cache) Access(pa uint32) uint64 {
	line := pa >> c.lineShift
	idx := line % c.lines
	tag := line/c.lines + 1
	if c.tag(idx) == tag {
		c.hits++
		return CostMemHit
	}
	c.setTag(idx, tag)
	c.misses++
	return CostMemMiss
}

// FlushAll invalidates every line (used by the second-level cache manager
// when reassigning page frames across kernels).
func (c *L2Cache) FlushAll() {
	for _, ch := range c.chunks {
		if ch != nil {
			clear(ch[:])
		}
	}
}

// FlushPage invalidates all lines of the 4 KB page containing pa.
func (c *L2Cache) FlushPage(pa uint32) {
	base := pa &^ (PageSize - 1)
	for off := uint32(0); off < PageSize; off += L2LineSize {
		line := (base + off) >> c.lineShift
		idx := line % c.lines
		tag := line/c.lines + 1
		if ch := c.chunks[idx>>l2ChunkShift]; ch != nil && ch[idx&l2ChunkMask] == tag {
			ch[idx&l2ChunkMask] = 0
		}
	}
}

// Stats reports accumulated hits and misses.
func (c *L2Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the counters.
func (c *L2Cache) ResetStats() { c.hits, c.misses = 0, 0 }

// HitRate reports the fraction of accesses that hit, or 0 with no accesses.
func (c *L2Cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}
