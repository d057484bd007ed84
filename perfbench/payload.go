package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
)

// splitmix64 is the finaliser of the SplitMix64 generator: a cheap,
// well-mixed hash of one 64-bit word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mix folds words into one seed.
func mix(words ...uint64) uint64 {
	h := uint64(0x6a09e667f3bcc909)
	for _, w := range words {
		h = splitmix64(h ^ w)
	}
	return h
}

func nameHash(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// fillPayload writes the bytes of one staged object into dst. The bytes
// depend only on (seed, variable, block, version), so any reader can
// regenerate what a read must return.
func fillPayload(dst []byte, seed int64, name string, block int, version int64) {
	x := mix(uint64(seed), nameHash(name), uint64(block), uint64(version))
	i := 0
	for ; i+8 <= len(dst); i += 8 {
		x += 0x9e3779b97f4a7c15
		binary.LittleEndian.PutUint64(dst[i:], splitmix64(x))
	}
	for ; i < len(dst); i++ {
		x += 0x9e3779b97f4a7c15
		dst[i] = byte(splitmix64(x))
	}
}

// verifier checks read results against their seeded payloads. Each client
// goroutine owns one, so the scratch buffer needs no lock.
type verifier struct {
	seed    int64
	scratch []byte
}

// check returns nil when got holds exactly the payload of (name, block,
// version), and otherwise an error naming the first differing byte.
func (v *verifier) check(got []byte, size int, name string, block int, version int64) error {
	if cap(v.scratch) < size {
		v.scratch = make([]byte, size)
	}
	want := v.scratch[:size]
	fillPayload(want, v.seed, name, block, version)
	if len(got) != size {
		return fmt.Errorf("%s block %d v%d: read %d bytes, want %d", name, block, version, len(got), size)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s block %d v%d: byte %d is %#02x, want %#02x", name, block, version, i, got[i], want[i])
		}
	}
	return nil
}

// opRNG returns the random stream of one schedule: the same seed and
// stream words give the same sequence.
func opRNG(seed int64, stream ...uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(append([]uint64{uint64(seed)}, stream...)...) >> 1)))
}

// churnOp is one small-churn operation.
type churnOp struct {
	slot int
	get  bool
}

// churnSchedule yields client c's small-churn operations in order.
type churnSchedule struct {
	rng     *rand.Rand
	slots   int
	getFrac float64
}

func newChurnSchedule(seed int64, client, slots int, getFrac float64) *churnSchedule {
	return &churnSchedule{rng: opRNG(seed, 0xc4, uint64(client)), slots: slots, getFrac: getFrac}
}

func (s *churnSchedule) next() churnOp {
	return churnOp{slot: s.rng.Intn(s.slots), get: s.rng.Float64() < s.getFrac}
}

// shuffled returns the indices [0, n) in the order the given stream picks.
func shuffled(n int, rng *rand.Rand) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
