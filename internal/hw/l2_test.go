package hw

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// refL2 is the original dense tag-array cache, kept as an executable
// specification: the chunked tag store must be observably identical to
// it — charges, statistics, captured state and digest — under any
// operation sequence.
type refL2 struct {
	lines  uint32
	tags   []uint32 // tag+1, 0 = invalid
	hits   uint64
	misses uint64
}

func newRefL2(size uint32) *refL2 {
	lines := size / L2LineSize
	return &refL2{lines: lines, tags: make([]uint32, lines)}
}

func (c *refL2) Access(pa uint32) uint64 {
	line := pa >> 5
	idx := line % c.lines
	tag := line/c.lines + 1
	if c.tags[idx] == tag {
		c.hits++
		return CostMemHit
	}
	c.tags[idx] = tag
	c.misses++
	return CostMemMiss
}

func (c *refL2) FlushAll() { clear(c.tags) }

func (c *refL2) FlushPage(pa uint32) {
	base := pa &^ (PageSize - 1)
	for off := uint32(0); off < PageSize; off += L2LineSize {
		line := (base + off) >> 5
		idx := line % c.lines
		if c.tags[idx] == line/c.lines+1 {
			c.tags[idx] = 0
		}
	}
}

func (c *refL2) State() L2State {
	st := L2State{NTags: int32(len(c.tags)), Hits: c.hits, Misses: c.misses}
	for i, t := range c.tags {
		if t != 0 {
			st.Tags = append(st.Tags, L2Tag{Line: int32(i), Tag: t})
		}
	}
	return st
}

func (c *refL2) Restore(st L2State) {
	clear(c.tags)
	for _, t := range st.Tags {
		c.tags[t.Line] = t.Tag
	}
	c.hits, c.misses = st.Hits, st.Misses
}

// digest is the L2 part of Machine.StateDigest as the dense array fed
// it: every tag, in line order, as an 8-byte little-endian word.
func (c *refL2) digest() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, t := range c.tags {
		for i := range buf {
			buf[i] = byte(uint64(t) >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

func l2Digest(c *L2Cache) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	c.hashTags(func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	})
	return h.Sum64()
}

// presentChunks counts the tag-store chunks a cache has allocated.
func presentChunks(c *L2Cache) int {
	n := 0
	for _, ch := range c.chunks {
		if ch != nil {
			n++
		}
	}
	return n
}

// TestL2MatchesDenseReference drives the chunked cache and the dense
// reference with the same seeded operation stream at several
// geometries — smaller than a chunk, not a multiple of the chunk size,
// and the default 8 MB — and demands identical charges, statistics,
// captured state and digest throughout.
func TestL2MatchesDenseReference(t *testing.T) {
	geoms := []struct {
		name       string
		size       uint32
		ops, every int // operations, and how often to compare full state
	}{
		{"8-lines", 8 * L2LineSize, 20000, 1},
		{"1000-lines", 1000 * L2LineSize, 20000, 3},
		{"2500-lines", 2500 * L2LineSize, 20000, 7},
		{"8MiB", 8 << 20, 4000, 250},
	}
	for gi, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			c, ref := NewL2Cache(g.size), newRefL2(g.size)
			rng := rand.New(rand.NewSource(int64(gi + 1)))
			// Addresses span four times the cache (conflicting tags),
			// with a small hot set of pages so hits occur too.
			pages := max(4*g.size/PageSize, 8)
			hot := make([]uint32, 4)
			for i := range hot {
				hot[i] = uint32(rng.Intn(int(pages)))
			}
			addr := func() uint32 {
				page := hot[rng.Intn(len(hot))]
				if rng.Intn(4) == 0 {
					page = uint32(rng.Intn(int(pages)))
				}
				return page<<PageShift | uint32(rng.Intn(PageSize))
			}
			for op := 0; op < g.ops; op++ {
				switch r := rng.Intn(100); {
				case r < 75:
					pa := addr()
					if got, want := c.Access(pa), ref.Access(pa); got != want {
						t.Fatalf("op %d: Access(%#x) charged %d, reference %d", op, pa, got, want)
					}
				case r < 88:
					pa := addr()
					c.FlushPage(pa)
					ref.FlushPage(pa)
				case r < 90:
					c.FlushAll()
					ref.FlushAll()
				default:
					// Capture and restore, into a fresh cache or back
					// over the dirty one.
					st, want := c.State(), ref.State()
					if !reflect.DeepEqual(st, want) {
						t.Fatalf("op %d: State differs from the reference", op)
					}
					if rng.Intn(2) == 0 {
						c = NewL2Cache(g.size)
					} else {
						c.Access(addr()) // dirty a chunk the capture may not name
					}
					if err := c.Restore(st); err != nil {
						t.Fatalf("op %d: restore: %v", op, err)
					}
					ref.Restore(want)
				}
				if h, m := c.Stats(); h != ref.hits || m != ref.misses {
					t.Fatalf("op %d: stats (%d,%d), reference (%d,%d)", op, h, m, ref.hits, ref.misses)
				}
				if op%g.every == 0 || op == g.ops-1 {
					if !reflect.DeepEqual(c.State(), ref.State()) {
						t.Fatalf("op %d: State differs from the reference", op)
					}
					if got, want := l2Digest(c), ref.digest(); got != want {
						t.Fatalf("op %d: digest %#x, reference %#x", op, got, want)
					}
				}
			}
		})
	}
}

// TestL2SparseUntilTouched pins the point of the chunked store: a
// default-size cache allocates no tag chunk until a miss lands in one,
// a miss allocates exactly the chunk it lands in, and restoring an
// empty capture allocates nothing.
func TestL2SparseUntilTouched(t *testing.T) {
	c := NewL2Cache(8 << 20)
	if n := presentChunks(c); n != 0 {
		t.Fatalf("fresh cache holds %d chunks, want 0", n)
	}
	if err := c.Restore(NewL2Cache(8 << 20).State()); err != nil {
		t.Fatal(err)
	}
	c.FlushAll()
	c.FlushPage(0x2000)
	if n := presentChunks(c); n != 0 {
		t.Fatalf("restore and flushes allocated %d chunks, want 0", n)
	}
	if got, want := l2Digest(c), newRefL2(8<<20).digest(); got != want {
		t.Fatalf("untouched digest %#x, dense reference %#x", got, want)
	}
	c.Access(0x2000)
	c.Access(0x2000 + L2LineSize)
	if n := presentChunks(c); n != 1 {
		t.Fatalf("two misses in one chunk allocated %d chunks, want 1", n)
	}
}
