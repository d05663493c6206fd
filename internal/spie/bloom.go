// Package spie implements a SPIE-style single-packet traceback
// substrate (Snoeren et al.), the hop-by-hop alternative the paper
// contrasts with in Sec. 2: every router stores digests of the
// packets it forwards in time-windowed Bloom filters, so the path of
// a single attack packet can be reconstructed by querying routers
// hop by hop — at the cost of per-router storage that honeypot
// back-propagation avoids. The package exists to quantify that
// trade-off (see the storage accounting in Deployment.BitsPerRouter).
package spie

import (
	"encoding/binary"
	"hash/fnv"
)

// Bloom is a fixed-size Bloom filter with double hashing.
type Bloom struct {
	bits   []uint64
	m      uint64 // filter size in bits
	k      int    // hash count
	counts int    // inserted elements
}

// NewBloom returns a filter of m bits with k hash functions.
func NewBloom(m int, k int) *Bloom {
	if m <= 0 || k <= 0 {
		panic("spie: bloom needs positive size and hash count")
	}
	return &Bloom{bits: make([]uint64, (m+63)/64), m: uint64(m), k: k}
}

// indices derives the k probe positions by double hashing.
func (b *Bloom) indices(digest uint64) (uint64, uint64) {
	h1 := digest
	h2 := digest>>33 | digest<<31
	if h2 == 0 {
		h2 = 0x9E3779B97F4A7C15 >> 1
	}
	return h1, h2
}

// Add inserts a digest.
func (b *Bloom) Add(digest uint64) {
	h1, h2 := b.indices(digest)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		b.bits[pos/64] |= 1 << (pos % 64)
	}
	b.counts++
}

// Contains reports (probabilistic) membership: false is exact, true
// may be a false positive.
func (b *Bloom) Contains(digest uint64) bool {
	h1, h2 := b.indices(digest)
	for i := 0; i < b.k; i++ {
		pos := (h1 + uint64(i)*h2) % b.m
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of inserted elements.
func (b *Bloom) Len() int { return b.counts }

// Reset clears the filter for reuse.
func (b *Bloom) Reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.counts = 0
}

// FillRatio returns the fraction of set bits (a saturation measure).
func (b *Bloom) FillRatio() float64 {
	set := 0
	for _, w := range b.bits {
		set += popcount(w)
	}
	return float64(set) / float64(b.m)
}

func popcount(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}

// DigestFields hashes the invariant packet fields (the SPIE digest
// covers header fields that do not change in flight — so TTL and the
// mutable mark field are excluded).
func DigestFields(src, dst int64, flow int, seq int64, size int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(src))
	put(uint64(dst))
	put(uint64(int64(flow)))
	put(uint64(seq))
	put(uint64(int64(size)))
	return h.Sum64()
}
