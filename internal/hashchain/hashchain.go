// Package hashchain implements the backward one-way hash chain that
// drives the roaming-honeypots pseudo-random schedule (Sec. 4 of the
// paper). The last key K_{n-1} is generated randomly; each earlier key
// is K_i = H(K_{i+1}). Keys are revealed/used forward in time (epoch i
// uses K_i), so holding K_t lets a client derive every key for epochs
// <= t but none after t — a time-limited service token.
package hashchain

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// KeySize is the byte length of chain keys (SHA-256 output).
const KeySize = sha256.Size

// Key is one element of the chain.
type Key [KeySize]byte

func (k Key) String() string { return fmt.Sprintf("%x", k[:8]) }

// step applies the one-way function once: step(K_{i+1}) = K_i.
func step(k Key) Key {
	return Key(sha256.Sum256(k[:]))
}

// Chain is the fully materialized key chain held by the servers and
// the subscription service. Index i is the key for epoch i.
type Chain struct {
	keys []Key
}

// Generate builds a chain of length n from the given seed material.
// The seed determines the entire chain, so tests are reproducible; a
// deployment would use crypto/rand output as the seed.
func Generate(seed []byte, n int) (*Chain, error) {
	if n <= 0 {
		return nil, errors.New("hashchain: non-positive length")
	}
	last := Key(sha256.Sum256(append([]byte("hbp-chain-seed:"), seed...)))
	keys := make([]Key, n)
	keys[n-1] = last
	for i := n - 2; i >= 0; i-- {
		keys[i] = step(keys[i+1])
	}
	return &Chain{keys: keys}, nil
}

// MustGenerate is Generate that panics on error; for fixed-size test
// and example setup.
func MustGenerate(seed []byte, n int) *Chain {
	c, err := Generate(seed, n)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of epochs the chain covers.
func (c *Chain) Len() int { return len(c.keys) }

// Key returns the key for the given epoch. Epochs beyond the chain end
// return an error: the service must be re-keyed (new chain) before the
// chain is exhausted.
func (c *Chain) Key(epoch int) (Key, error) {
	if epoch < 0 || epoch >= len(c.keys) {
		return Key{}, fmt.Errorf("hashchain: epoch %d outside chain [0,%d)", epoch, len(c.keys))
	}
	return c.keys[epoch], nil
}

// Derive computes the key of an earlier epoch from a later one without
// access to the chain, by walking the one-way function forward:
// K_earlier = H^(laterEpoch-earlierEpoch)(K_later).
func Derive(later Key, laterEpoch, earlierEpoch int) (Key, error) {
	if earlierEpoch > laterEpoch {
		return Key{}, errors.New("hashchain: cannot derive a future key")
	}
	k := later
	for i := 0; i < laterEpoch-earlierEpoch; i++ {
		k = step(k)
	}
	return k, nil
}

// Verify checks that claimed is the genuine key for claimedEpoch,
// given a trusted (anchor) key for an earlier-or-equal epoch. It walks
// the claimed key backward and compares in constant time.
func Verify(claimed Key, claimedEpoch int, anchor Key, anchorEpoch int) bool {
	if anchorEpoch > claimedEpoch {
		return false
	}
	derived, err := Derive(claimed, claimedEpoch, anchorEpoch)
	if err != nil {
		return false
	}
	return hmac.Equal(derived[:], anchor[:])
}

// SubKey derives a purpose-bound key from a chain key under a domain
// label: HMAC(k, label). Distinct labels yield independent keys, so
// revealing one purpose's key (e.g. a client service token) never
// leaks another's (e.g. the control-plane MAC key for the same epoch).
func SubKey(k Key, label string) Key {
	mac := hmac.New(sha256.New, k[:])
	mac.Write([]byte(label))
	var out Key
	copy(out[:], mac.Sum(nil))
	return out
}

// Tag computes the message authentication code of data under the key:
// the per-epoch control-plane MAC of the hardened defense (see
// DESIGN.md, "Threat model & graceful degradation").
func (k Key) Tag(data []byte) []byte {
	mac := hmac.New(sha256.New, k[:])
	mac.Write(data)
	return mac.Sum(nil)
}

// CheckTag verifies a MAC produced by Tag, in constant time.
func (k Key) CheckTag(data, tag []byte) bool {
	if len(tag) == 0 {
		return false
	}
	return hmac.Equal(tag, k.Tag(data))
}

// ActiveSet derives the epoch's active-server subset from its key:
// k distinct indices out of n, via a PRNG keyed by the epoch key. All
// parties holding the key compute the same set.
func ActiveSet(key Key, n, k int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("hashchain: invalid active set %d of %d", k, n))
	}
	// Deterministic Fisher–Yates over [0,n) driven by an HMAC-based
	// stream keyed on the epoch key: draw c is the first 8 bytes of
	// HMAC(key, bigendian(c)). One keyed MAC serves every draw; Reset
	// returns it to the keyed state.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	mac := hmac.New(sha256.New, key[:])
	var st struct {
		ctr [8]byte
		sum [sha256.Size]byte
	}
	for i, c := n-1, uint64(0); i > 0; i, c = i-1, c+1 {
		binary.BigEndian.PutUint64(st.ctr[:], c)
		mac.Reset()
		mac.Write(st.ctr[:])
		v := binary.BigEndian.Uint64(mac.Sum(st.sum[:0]))
		j := int(v % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, k)
	copy(out, idx[:k])
	return out
}
