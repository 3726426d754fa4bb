package ck

import (
	"math/rand"
	"reflect"
	"testing"

	"vpp/internal/hw"
)

// TestPMapResetMatchesFresh: the whole fork-pool argument rests on one
// claim — a recycled pmap is indistinguishable from a freshly built
// one. reset touches only the slots below the issued mark, so each case
// dirties a map a different way and requires deep equality with newPMap
// afterwards, free-slot order included.
func TestPMapResetMatchesFresh(t *testing.T) {
	const slots, buckets = 64, 16
	cases := []struct {
		name  string
		dirty func(t *testing.T, p *pmap)
	}{
		// Inserts across buckets, removals on both the scrubbing and
		// keeping paths, clock-hand motion.
		{"dirty", func(t *testing.T, p *pmap) {
			var idxs []int32
			for i := 0; i < 48; i++ {
				idx, ok := p.insert(depKind(1+i%3), uint32(i*31), uint32(i), int32(i%7))
				if !ok {
					t.Fatalf("insert %d failed with %d slots", i, slots)
				}
				idxs = append(idxs, idx)
			}
			for i, idx := range idxs {
				switch i % 3 {
				case 0:
					p.remove(idx)
				case 1:
					p.removeKeep(idx)
				}
			}
			p.victim(func(int32, *depRecord) bool { return false }) // move the clock hand
		}},
		// Every slot issued, then replacement through the clock hand:
		// victim, removeKeep and insertAt into the reclaimed slot.
		{"full", func(t *testing.T, p *pmap) {
			for i := 0; i < slots; i++ {
				if _, ok := p.insert(depPhysVirt, uint32(i*7), uint32(i), 1); !ok {
					t.Fatalf("insert %d failed with %d slots", i, slots)
				}
			}
			if _, ok := p.insert(depPhysVirt, 1, 1, 1); ok {
				t.Fatal("insert into a full pmap succeeded")
			}
			if p.issued != slots {
				t.Fatalf("full pmap issued mark %d, want %d", p.issued, slots)
			}
			for i := 0; i < 3*slots; i++ {
				idx, _ := p.victim(func(int32, *depRecord) bool { return true })
				p.removeKeep(idx)
				p.insertAt(idx, depPhysVirt, uint32(1000+i), uint32(i), 2)
			}
		}},
		// Reservations released unused, evictions handed back, and
		// plain removals, interleaved at random.
		{"release", func(t *testing.T, p *pmap) {
			rng := rand.New(rand.NewSource(7))
			var live []int32
			for op := 0; op < 2000; op++ {
				switch r := rng.Intn(10); {
				case r < 4:
					if idx, ok := p.insert(depKind(1+rng.Intn(3)), uint32(rng.Intn(256)), uint32(op), 3); ok {
						live = append(live, idx)
					}
				case r < 6:
					if idx, ok := p.takeFree(); ok {
						p.releaseSlot(idx)
					}
				case len(live) == 0:
				default:
					j := rng.Intn(len(live))
					idx := live[j]
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					if r < 8 {
						p.remove(idx)
					} else {
						p.removeKeep(idx)
						p.releaseSlot(idx)
					}
				}
			}
		}},
		// A map restored from a capture whose free stack re-pushed
		// slots into their canonical positions, so the canonical prefix
		// is longer than the untouched one; then used and reset.
		{"restored", func(t *testing.T, p *pmap) {
			src := newPMap(slots, buckets)
			for i := 0; i < 5; i++ {
				src.insert(depPhysVirt, uint32(i*5), uint32(i), 1) // slots 0..4
			}
			a, _ := src.takeFree()
			b, _ := src.takeFree()
			src.releaseSlot(b)
			src.releaseSlot(a) // slots 5 and 6 reserved and released, never used
			src.remove(4)
			src.remove(3) // free stack ends [..., 5, 4, 3]: still canonical
			src.removeKeep(1)
			src.releaseSlot(1) // a non-canonical tail
			st := src.capture()
			if want := int32(slots - 3); st.FreeCanon != want {
				t.Fatalf("capture FreeCanon %d, want %d", st.FreeCanon, want)
			}
			if err := p.restore(&st); err != nil {
				t.Fatal(err)
			}
			if p.issued < 5 {
				t.Fatalf("restored issued mark %d misses touched slots 3 and 4", p.issued)
			}
			if got := p.capture(); !reflect.DeepEqual(got, st) {
				t.Fatalf("restored pmap captures differently:\ngot  %+v\nwant %+v", got, st)
			}
			for i := 0; i < 12; i++ {
				idx, ok := p.insert(depPhysVirt, uint32(100+i), uint32(i), 2)
				if !ok {
					t.Fatalf("insert %d after restore failed", i)
				}
				if i%2 == 0 {
					p.remove(idx)
				}
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPMap(slots, buckets)
			for round := 0; round < 2; round++ { // reset must also hold for a reused map
				tc.dirty(t, p)
				p.reset()
				if want := newPMap(slots, buckets); !reflect.DeepEqual(p, want) {
					t.Fatalf("round %d: reset pmap differs from a fresh one:\ngot  %+v\nwant %+v", round, p, want)
				}
			}
		})
	}
}

// TestInstancePoolAdoptRecycle exercises the pool's bookkeeping through
// a take-miss, a fill, an adoption and a recycle.
func TestInstancePoolAdoptRecycle(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.MPMs = 3
	m := hw.NewMachine(cfg)

	pool := NewInstancePool()
	k0, err := pool.New(m.MPMs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Missed != 1 || s.Adopted != 0 {
		t.Fatalf("empty-pool New: stats %+v, want one miss", s)
	}

	pool.Fill(Config{}, 2)
	if s := pool.Stats(); s.Built != 2 || s.Idle != 2 {
		t.Fatalf("after Fill(2): stats %+v", s)
	}
	k1, err := pool.New(m.MPMs[1], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s := pool.Stats(); s.Adopted != 1 || s.Idle != 1 {
		t.Fatalf("pooled New: stats %+v, want one adoption", s)
	}
	adopted := k1.pm

	pool.Recycle(k0)
	if k0.pm != nil {
		t.Fatal("Recycle left the kernel holding its pmap")
	}
	if s := pool.Stats(); s.Recycled != 1 || s.Idle != 2 {
		t.Fatalf("after Recycle: stats %+v", s)
	}

	// A recycled pmap must come back out; dimensions must still match.
	k2, err := pool.New(m.MPMs[2], Config{})
	if err != nil {
		t.Fatal(err)
	}
	if k2.pm == adopted {
		t.Fatal("adopted pmap handed out twice")
	}
	cfg2 := Config{}.withDefaults()
	if k2.pm.Capacity() != cfg2.MappingSlots {
		t.Fatalf("adopted pmap has %d slots, config wants %d", k2.pm.Capacity(), cfg2.MappingSlots)
	}
}

// TestPoolMismatchedShapeMisses: a pool holding only one shape must not
// hand its maps to a differently-sized configuration.
func TestPoolMismatchedShapeMisses(t *testing.T) {
	cfg := hw.DefaultConfig()
	m := hw.NewMachine(cfg)
	pool := NewInstancePool()
	pool.Fill(Config{}, 1)
	small := Config{MappingSlots: 128, PMapBuckets: 64}
	if _, err := pool.New(m.MPMs[0], small); err != nil {
		t.Fatal(err)
	}
	s := pool.Stats()
	if s.Adopted != 0 || s.Missed != 1 || s.Idle != 1 {
		t.Fatalf("mismatched shape: stats %+v, want a miss with the pooled map untouched", s)
	}
}

// BenchmarkInstancePoolRecycle measures one fork's pool round trip at
// the default 65536-slot geometry: adopt a pmap, load a handful of
// records, recycle it. Reset cost follows the slots a fork touched, not
// the pool's capacity.
func BenchmarkInstancePoolRecycle(b *testing.B) {
	cfg := Config{}.withDefaults()
	pool := NewInstancePool()
	pool.Fill(cfg, 1)
	k := &Kernel{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k.pm = pool.take(cfg.MappingSlots, cfg.PMapBuckets)
		for j := uint32(0); j < 8; j++ {
			k.pm.insert(depPhysVirt, j*97, j, 1)
		}
		pool.Recycle(k)
	}
}
