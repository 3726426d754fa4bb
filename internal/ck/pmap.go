package ck

// The physical memory map stores 16-byte dependency records, one per
// loaded page mapping plus one per signal or copy-on-write specification
// (paper §4.1). A record is (key, dependent, context):
//
//   - physical-to-virtual: key = physical frame, dependent = virtual
//     address, context = owning address-space slot. This is the dominant
//     case and the unit of mapping replacement.
//   - signal: key = handle of the physical-to-virtual record, dependent =
//     signal thread slot, context = the signal marker.
//   - copy-on-write: key = handle of the record, dependent = source
//     frame.
//
// Signal delivery looks up the physical-to-virtual records for the
// signalled frame, then the signal records keyed by each record's handle
// — the two-stage lookup whose cost the per-processor reverse-TLB
// (rtlb.go) avoids in the common case.

// depKind tags the record's role, stored in the context word.
type depKind uint32

const (
	depFree depKind = iota
	depPhysVirt
	depSignal
	depCopyOnWrite
)

// depRecord is the 16-byte descriptor. The Go struct is exactly four
// 32-bit words, matching the paper's MemMapEntry size (Table 1).
type depRecord struct {
	key  uint32
	dep  uint32
	ctx  uint32 // kind (4 bits) | locked (1 bit) | owner slot (16 bits << 8)
	next int32  // hash chain, -1 ends
}

// depRecordBytes is the accounted size of one record.
const depRecordBytes = 16

const (
	ctxKindMask   = 0xf
	ctxLockedBit  = 1 << 4
	ctxOwnerShift = 8
)

func makeCtx(kind depKind, owner int32) uint32 {
	return uint32(kind) | uint32(owner)<<ctxOwnerShift
}

func (r *depRecord) kind() depKind { return depKind(r.ctx & ctxKindMask) }
func (r *depRecord) locked() bool  { return r.ctx&ctxLockedBit != 0 }
func (r *depRecord) owner() int32  { return int32(r.ctx >> ctxOwnerShift) }

func (r *depRecord) setLocked(v bool) {
	if v {
		r.ctx |= ctxLockedBit
	} else {
		r.ctx &^= ctxLockedBit
	}
}

// pmap is the fixed-pool hash table of dependency records.
type pmap struct {
	recs    []depRecord
	free    []int32
	buckets []int32
	live    int
	hand    int32 // clock hand for replacement scans

	// issued is one past the highest slot takeFree has handed out (or a
	// restored capture names). The free stack pops from its top and
	// starts as [n-1, ..., 0], so slots are first issued in ascending
	// order: every slot at or above issued is untouched, and the bottom
	// n-issued stack positions still hold their original values. reset
	// uses it to undo only what a run touched.
	issued int32

	// used marks slots that have ever held a record; reloads counts
	// insertions into such slots — the mapping cache's analog of the
	// objCache reload counter (observability only, not accounted RAM).
	used    []bool
	reloads uint64
}

func newPMap(capacity, buckets int) *pmap {
	p := &pmap{
		recs:    make([]depRecord, capacity),
		buckets: make([]int32, buckets),
		used:    make([]bool, capacity),
		free:    make([]int32, 0, capacity),
	}
	for i := range p.buckets {
		p.buckets[i] = -1
	}
	for i := capacity - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

// reset returns the pmap to its freshly-constructed state in place:
// indistinguishable from newPMap(len(recs), len(buckets)) to every
// reader, including the descending free-slot order and the cleared
// used/reloads observability state, so a recycled pmap adopted by a
// fork behaves byte-for-byte like a rebuilt one. Its cost is
// proportional to the slots ever issued, not to the pool's capacity:
// every non-empty hash chain is headed by a live record, and every live
// record lies below the issued mark.
func (p *pmap) reset() {
	touched := p.recs[:p.issued]
	for i := range touched {
		if touched[i].kind() != depFree {
			p.buckets[p.bucket(touched[i].key)] = -1
		}
	}
	clear(touched)
	clear(p.used[:p.issued])
	p.free = p.free[:len(p.recs)-int(p.issued)]
	for i := p.issued - 1; i >= 0; i-- {
		p.free = append(p.free, i)
	}
	p.live, p.hand, p.reloads, p.issued = 0, 0, 0, 0
}

func (p *pmap) bucket(key uint32) int32 {
	return int32(key * 2654435761 % uint32(len(p.buckets)))
}

// insert allocates a record; full=false means the pool is exhausted and
// the caller must reclaim a victim first. probes counts hash work for
// cycle charging.
func (p *pmap) insert(kind depKind, key, dep uint32, owner int32) (idx int32, ok bool) {
	idx, ok = p.takeFree()
	if !ok {
		return -1, false
	}
	p.insertAt(idx, kind, key, dep, owner)
	return idx, true
}

// takeFree pops a free record slot, reserving it for the caller.
// Reservation and eviction hand-off must not be separated by a charge
// point, or another processor's load can steal the slot (the
// non-blocking-synchronization discipline of paper §4.2).
func (p *pmap) takeFree() (int32, bool) {
	if len(p.free) == 0 {
		return -1, false
	}
	idx := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	if idx >= p.issued {
		p.issued = idx + 1
	}
	return idx, true
}

// releaseSlot returns a reserved (unused) slot to the free pool.
func (p *pmap) releaseSlot(idx int32) { p.free = append(p.free, idx) }

// insertAt fills a reserved slot with a live record.
func (p *pmap) insertAt(idx int32, kind depKind, key, dep uint32, owner int32) {
	if p.used[idx] {
		p.reloads++
	} else {
		p.used[idx] = true
	}
	b := p.bucket(key)
	p.recs[idx] = depRecord{key: key, dep: dep, ctx: makeCtx(kind, owner), next: p.buckets[b]}
	p.buckets[b] = idx
	p.live++
}

// remove frees record idx, unlinking it from its chain. probes reports
// chain positions walked (for cycle charging).
func (p *pmap) remove(idx int32) (probes int) {
	probes = p.removeKeep(idx)
	p.free = append(p.free, idx)
	return probes
}

// removeKeep unlinks record idx but keeps the slot reserved for the
// caller instead of freeing it (the eviction hand-off).
func (p *pmap) removeKeep(idx int32) (probes int) {
	r := &p.recs[idx]
	if r.kind() == depFree {
		panic("ck: pmap remove of free record")
	}
	b := p.bucket(r.key)
	cur := p.buckets[b]
	if cur == idx {
		p.buckets[b] = r.next
		probes = 1
	} else {
		probes = 1
		for cur != -1 {
			probes++
			if p.recs[cur].next == idx {
				p.recs[cur].next = r.next
				break
			}
			cur = p.recs[cur].next
		}
		if cur == -1 {
			panic("ck: pmap record not on its chain")
		}
	}
	*r = depRecord{next: -1}
	p.live--
	return probes
}

// findEach calls fn for every live record with the given kind and key, in
// reverse insertion order (chain order). fn may remove the current
// record. It returns the number of chain probes for cycle charging.
func (p *pmap) findEach(kind depKind, key uint32, fn func(idx int32, r *depRecord) bool) (probes int) {
	cur := p.buckets[p.bucket(key)]
	for cur != -1 {
		probes++
		next := p.recs[cur].next
		r := &p.recs[cur]
		if r.kind() == kind && r.key == key {
			if !fn(cur, r) {
				return probes
			}
		}
		cur = next
	}
	return probes
}

// findOne returns the first live record matching (kind, key, dep), or -1.
func (p *pmap) findOne(kind depKind, key, dep uint32) (idx int32, probes int) {
	idx = -1
	probes = p.findEach(kind, key, func(i int32, r *depRecord) bool {
		if r.dep == dep {
			idx = i
			return false
		}
		return true
	})
	return idx, probes
}

// rec returns the record at idx.
func (p *pmap) rec(idx int32) *depRecord { return &p.recs[idx] }

// victim advances the clock hand to the next physical-to-virtual record
// accepted by reclaimable, returning its index, or -1 if none is
// reclaimable. scanned reports slots visited for cycle charging.
func (p *pmap) victim(reclaimable func(idx int32, r *depRecord) bool) (idx int32, scanned int) {
	n := int32(len(p.recs))
	for i := int32(0); i < n; i++ {
		p.hand = (p.hand + 1) % n
		r := &p.recs[p.hand]
		scanned++
		if r.kind() == depPhysVirt && reclaimable(p.hand, r) {
			return p.hand, scanned
		}
	}
	return -1, scanned
}

// Live reports the number of allocated records.
func (p *pmap) Live() int { return p.live }

// Capacity reports the record pool size.
func (p *pmap) Capacity() int { return len(p.recs) }
