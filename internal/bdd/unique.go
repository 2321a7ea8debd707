package bdd

import "math/bits"

// uniqueTable is the per-variable unique table: an open-addressing
// (linear probing) hash table mapping a canonical (lo,hi) child pair —
// hi regular, lo possibly complemented — to the one physical node
// labelled by the table's variable. Slots hold regular node handles
// directly; the key is recovered from the node arena, so the table
// costs one int32 per slot. Deletion shifts the rest of the probe
// cluster back (Knuth's Algorithm R, TAOCP vol. 3, §6.4), so the table
// never holds tombstones: every probe chain ends at the first empty
// slot, and the load factor counts live entries only. Tables are
// power-of-two sized, grow by amortized doubling when an insert would
// push the load over 3/4, and are rebuilt right-sized by GC.
type uniqueTable struct {
	slots []Node // regular node handles; emptySlot marks a free slot
	shift uint8  // 64 - log2(len(slots)); index = hash >> shift
	count int32  // live entries
}

// emptySlot marks a free slot. Regular handle 0 is the terminal and
// never enters a unique table, so 0 is free.
const emptySlot Node = 0

// hashPair mixes a child pair into a 64-bit hash whose high bits index
// the table (Fibonacci hashing). The complement bit of lo is part of
// the key; hi is always regular.
func hashPair(lo, hi Node) uint64 {
	return (uint64(uint32(lo))<<32 | uint64(uint32(hi))) * 0x9E3779B97F4A7C15
}

// find probes for the node with children (lo,hi). It returns the
// node's regular handle and slot, or 0 and the empty slot that ends
// the probe chain — where an insert of the pair belongs.
func (t *uniqueTable) find(nodes []node, lo, hi Node) (Node, uint64) {
	if len(t.slots) == 0 {
		return 0, 0
	}
	mask := uint64(len(t.slots) - 1)
	i := hashPair(lo, hi) >> t.shift
	for {
		s := t.slots[i]
		if s == emptySlot {
			return 0, i
		}
		nd := &nodes[s>>1]
		if nd.lo == lo && nd.hi == hi {
			return s, i
		}
		i = (i + 1) & mask
	}
}

// lookup returns the regular handle of the node with children (lo,hi),
// or 0 when absent.
func (t *uniqueTable) lookup(nodes []node, lo, hi Node) Node {
	n, _ := t.find(nodes, lo, hi)
	return n
}

// insertAt adds the node with regular handle n and children (lo,hi)
// at slot i, which find has just returned for the absent pair. When
// the insert would push the load factor over 3/4 the table grows
// first and the pair's slot is found again.
func (t *uniqueTable) insertAt(nodes []node, sp *slotPool, lo, hi Node, i uint64, n Node) {
	if (int(t.count)+1)*4 > len(t.slots)*3 {
		t.rehash(nodes, sp, int(t.count)+1)
		_, i = t.find(nodes, lo, hi)
	}
	t.slots[i] = n
	t.count++
}

// insert adds the node with regular handle n and children (lo,hi),
// which must not already be present.
func (t *uniqueTable) insert(nodes []node, sp *slotPool, lo, hi Node, n Node) {
	_, i := t.find(nodes, lo, hi)
	t.insertAt(nodes, sp, lo, hi, i, n)
}

// delete removes the entry with children (lo,hi) by backward shift:
// each later entry of the probe cluster whose home slot does not lie
// cyclically in (hole, entry] moves back into the hole, so every
// surviving entry stays reachable from its home slot without a
// tombstone.
func (t *uniqueTable) delete(nodes []node, lo, hi Node) {
	n, i := t.find(nodes, lo, hi)
	if n == 0 {
		return
	}
	mask := uint64(len(t.slots) - 1)
	for j := i; ; {
		j = (j + 1) & mask
		s := t.slots[j]
		if s == emptySlot {
			break
		}
		nd := &nodes[s>>1]
		home := hashPair(nd.lo, nd.hi) >> t.shift
		if (j-home)&mask < (j-i)&mask {
			continue // home lies in (i, j]: s must stay after it
		}
		t.slots[i] = s
		i = j
	}
	t.slots[i] = emptySlot
	t.count--
}

// tableSize returns the power-of-two capacity that keeps want live
// entries at or below half load.
func tableSize(want int) int {
	size := 16
	for size < want*2 {
		size *= 2
	}
	return size
}

// setSlots installs an empty power-of-two slot array.
func (t *uniqueTable) setSlots(slots []Node) {
	t.slots = slots
	t.shift = uint8(64 - bits.Len(uint(len(slots)-1)))
}

// rehash rebuilds the table at a capacity sized for want live entries
// and recycles the old slot array.
func (t *uniqueTable) rehash(nodes []node, sp *slotPool, want int) {
	old := t.slots
	t.setSlots(sp.get(tableSize(want)))
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s == emptySlot {
			continue
		}
		nd := &nodes[s>>1]
		i := hashPair(nd.lo, nd.hi) >> t.shift
		for t.slots[i] != emptySlot {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
	sp.put(old)
}

// reset empties the table and sizes it for want live entries; GC uses
// it to rebuild tables right-sized (shrinking sparse ones, so sift's
// slot scans stay proportional to live nodes).
func (t *uniqueTable) reset(sp *slotPool, want int) {
	t.count = 0
	if want == 0 {
		sp.put(t.slots)
		t.slots, t.shift = nil, 0
		return
	}
	if size := tableSize(want); size == len(t.slots) {
		clear(t.slots)
	} else {
		sp.put(t.slots)
		t.setSlots(sp.get(size))
	}
}

// slotPool recycles unique-table slot arrays within one Manager, keyed
// by log2 of their power-of-two length, so table growth during
// sifting, the right-sizing rebuilds of GC and the tables of a reused
// Manager draw on arrays the Manager already owns.
type slotPool [32][][]Node

// get returns a zeroed slot array of the given power-of-two size.
func (p *slotPool) get(size int) []Node {
	k := bits.TrailingZeros(uint(size))
	if l := p[k]; len(l) > 0 {
		s := l[len(l)-1]
		l[len(l)-1] = nil
		p[k] = l[:len(l)-1]
		clear(s)
		return s
	}
	return make([]Node, size)
}

// put hands a slot array back for reuse; nil is ignored.
func (p *slotPool) put(s []Node) {
	if len(s) == 0 {
		return
	}
	k := bits.TrailingZeros(uint(len(s)))
	p[k] = append(p[k], s)
}
