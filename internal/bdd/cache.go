package bdd

import "math/bits"

// The operation cache is a fixed-size, direct-mapped, lossy table: a
// colliding store simply overwrites the previous entry (counted in
// Evictions). Every entry carries a generation stamp, so swapLevels
// and GC invalidate the whole cache by bumping Manager.cacheGen — an
// O(1) operation with no allocation — instead of reallocating the
// table. Hits and Misses therefore count a lossy cache: a miss may
// recompute a result the cache once held.
//
// One cache serves every cached operation, keyed by an op code plus up
// to three operands. Complement edges concentrate the traffic: NOT is
// a handle bit flip and never reaches the cache, OR dualises into the
// AND recursion through De Morgan, XOR strips the complement bits off
// both operands (it commutes with complement), ITE normalises to the
// Brace-Rudell-Bryant standard triple before lookup, and the
// commuting applies sort their operands — so every member of an
// equivalence class of calls shares one entry. Quantification keys on
// the positive-literal cube of the quantified variables and
// cofactoring on a packed variable/phase literal, so their sub-results
// persist across calls instead of living in per-call scratch maps.

// Op codes for the operation cache. opNone marks an empty entry.
const (
	opNone int32 = iota
	opIte
	opAnd
	opXor
	opExists
	opCofactor
	opIntersect
)

// cacheEntry is one direct-mapped slot (24 bytes).
type cacheEntry struct {
	f, g, h Node
	op      int32
	res     Node
	gen     uint32
}

const (
	// cacheMinSize is the initial operation-cache capacity; small, so
	// short-lived managers stay cheap — maybeGrowCache scales it to
	// the arena.
	cacheMinSize = 1 << 8
	// cacheMaxSize caps growth (entries, 24 bytes each).
	cacheMaxSize = 1 << 19
)

// cacheIndex maps an operation key to its one slot.
func (m *Manager) cacheIndex(op int32, f, g, h Node) uint64 {
	x := uint64(uint32(f))*0x9E3779B97F4A7C15 +
		uint64(uint32(g))*0xBF58476D1CE4E5B9 +
		uint64(uint32(h))*0x94D049BB133111EB +
		uint64(uint32(op))*0xD6E8FEB86659FD93
	return x >> m.cacheShift
}

// cacheLookup consults the operation cache; only current-generation
// entries with a full key match count as hits.
func (m *Manager) cacheLookup(op int32, f, g, h Node) (Node, bool) {
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	if e.gen == m.cacheGen && e.op == op && e.f == f && e.g == g && e.h == h {
		m.Hits++
		return e.res, true
	}
	m.Misses++
	return 0, false
}

// cacheStore records a result, unconditionally overwriting whatever
// occupied the slot (lossy). Overwriting a live entry with a different
// key counts as an eviction.
func (m *Manager) cacheStore(op int32, f, g, h, res Node) {
	e := &m.cache[m.cacheIndex(op, f, g, h)]
	if e.gen == m.cacheGen && e.op != opNone &&
		!(e.op == op && e.f == f && e.g == g && e.h == h) {
		m.Evictions++
	}
	*e = cacheEntry{f: f, g: g, h: h, op: op, res: res, gen: m.cacheGen}
}

// bumpCacheGen invalidates every cache entry in O(1) by advancing the
// generation stamp. On the (practically unreachable) uint32 wraparound
// the whole backing array — spare capacity included, which a later
// growth reslices — is cleared in place so stale generations cannot
// alias.
func (m *Manager) bumpCacheGen() {
	m.cacheGen++
	if m.cacheGen == 0 {
		clear(m.cache[:cap(m.cache)])
		m.cacheGen = 1
		m.CacheResets++
	}
}

// maybeGrowCache doubles the cache once the node arena has outgrown it,
// up to cacheMaxSize. It is called only from public operation entry
// points — never from swapLevels or GC — so a full sift pass performs
// zero cache reallocations (see the CacheResets stat and its
// regression test). A reused manager reslices the spare capacity an
// earlier life left behind; the generation bump invalidates whatever
// that capacity still holds, exactly as a fresh array would be empty.
func (m *Manager) maybeGrowCache() {
	if len(m.cache) >= cacheMaxSize || len(m.nodes) <= len(m.cache)*2 {
		return
	}
	size := len(m.cache) * 2
	for size*2 < len(m.nodes) && size < cacheMaxSize {
		size *= 2
	}
	if size <= cap(m.cache) {
		m.cache = m.cache[:size]
	} else {
		m.cache = make([]cacheEntry, size)
	}
	m.cacheShift = uint8(64 - bits.Len(uint(size-1)))
	m.bumpCacheGen()
	m.CacheResets++
}
