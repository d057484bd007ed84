package scrub

import (
	"fmt"
	"hash/crc32"
	"math/bits"
	"math/rand"
	"testing"
)

// flipEffects returns, for every bit j of an n-byte payload (byte j/8, mask
// 1<<(j%8)), how Checksum's value changes when that bit alone flips. Each
// half is a CRC, and a CRC is affine in its input: the change caused by an
// error pattern does not depend on the payload, and it is the XOR of the
// changes caused by the pattern's single bits. A bit's change is the raw
// CRC register of a one-bit message followed by as many zero bytes as
// there are after the bit in the payload.
func flipEffects(n int) []uint64 {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	ieee := crc32.MakeTable(crc32.IEEE)
	// crc32.Update inverts the register on entry and on exit, so ^Update(^r)
	// steps the raw register r over p.
	step := func(tab *crc32.Table, r uint32, p []byte) uint32 { return ^crc32.Update(^r, tab, p) }
	eff := make([]uint64, 8*n)
	zero := []byte{0}
	for b := 0; b < 8; b++ {
		one := []byte{1 << b}
		hi, lo := step(ieee, 0, one), step(castagnoli, 0, one)
		for i := n - 1; i >= 0; i-- {
			eff[8*i+b] = uint64(hi)<<32 | uint64(lo)
			hi, lo = step(ieee, hi, zero), step(castagnoli, lo, zero)
		}
	}
	return eff
}

// TestChecksumDetectsShortErrors checks, on random payloads of 0–4096
// bytes and of 256 KiB, that every single-bit flip and every burst of 64
// bits or fewer changes the checksum. A burst of length L at bit p has bits
// p and p+L-1 set and any interior; every (p, L) pair is checked, with a
// random interior each (TestChecksumGeneratorsCoprime covers all interiors
// algebraically). Sampled bursts are also applied to the payload, so the
// effect table is tied to Checksum itself.
func TestChecksumDetectsShortErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	sizes := []int{0, 1, 3, 8, 9, 64, 1000, 4096, 256 << 10}
	for i := 0; i < 4; i++ {
		sizes = append(sizes, rng.Intn(4097))
	}
	for _, n := range sizes {
		data := make([]byte, n)
		rng.Read(data)
		want := Checksum(data)
		eff := flipEffects(n)
		nbits := len(eff)
		for p := 0; p < nbits; p++ {
			if eff[p] == 0 {
				t.Fatalf("n=%d: flip of bit %d undetected", n, p)
			}
			// Grow the burst one bit at a time; each new end bit joins the
			// interior of the longer bursts with probability 1/2.
			coin := rng.Uint64()
			var interior uint64
			for l := 2; l <= 64 && p+l <= nbits; l++ {
				end := p + l - 1
				if eff[p]^interior^eff[end] == 0 {
					t.Fatalf("n=%d: burst of %d bits at bit %d undetected", n, l, p)
				}
				if coin>>l&1 == 1 {
					interior ^= eff[end]
				}
			}
		}
		for s := 0; s < 64 && nbits > 0; s++ {
			p := rng.Intn(nbits)
			l := 1 + rng.Intn(64)
			if p+l > nbits {
				l = nbits - p
			}
			mut := append([]byte(nil), data...)
			var diff uint64
			for j := p; j < p+l; j++ {
				if j == p || j == p+l-1 || rng.Intn(2) == 1 {
					mut[j/8] ^= 1 << (j % 8)
					diff ^= eff[j]
				}
			}
			if got := Checksum(mut); got != want^diff {
				t.Fatalf("n=%d: burst of %d bits at bit %d: checksum %#x, effect table predicts %#x", n, l, p, got, want^diff)
			}
		}
	}
}

// TestChecksumHalves pins the layout: CRC-32 (IEEE) high, CRC-32C low.
func TestChecksumHalves(t *testing.T) {
	data := []byte("at-rest checksum")
	want := uint64(crc32.ChecksumIEEE(data))<<32 | uint64(crc32.Checksum(data, crc32.MakeTable(crc32.Castagnoli)))
	if got := Checksum(data); got != want {
		t.Fatalf("Checksum = %#x, want %#x", got, want)
	}
}

// gf2Mod returns a mod b for polynomials over GF(2), bit i holding the
// coefficient of x^i.
func gf2Mod(a, b uint64) uint64 {
	for db := bits.Len64(b); bits.Len64(a) >= db; {
		a ^= b << (bits.Len64(a) - db)
	}
	return a
}

func gf2GCD(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, gf2Mod(a, b)
	}
	return a
}

// TestChecksumGeneratorsCoprime checks the property the burst guarantee
// rests on: the IEEE and Castagnoli generators share no factor, so a
// pattern escapes both halves only if their degree-64 product divides it.
// A burst of 64 bits or fewer is x^i·b(x) with b(0) = 1 and deg b < 64;
// neither generator has the factor x, so no such b is divisible.
func TestChecksumGeneratorsCoprime(t *testing.T) {
	if g := gf2GCD(0b101, 0b11); g != 0b11 { // (x+1)^2 and x+1
		t.Fatalf("gf2GCD self-check = %#b, want 0b11", g)
	}
	// The stdlib constants are bit-reversed and omit the x^32 term.
	ieee := uint64(bits.Reverse32(crc32.IEEE)) | 1<<32
	castagnoli := uint64(bits.Reverse32(crc32.Castagnoli)) | 1<<32
	if g := gf2GCD(ieee, castagnoli); g != 1 {
		t.Fatalf("gcd(IEEE, Castagnoli) = %#x, want 1", g)
	}
	if ieee&1 == 0 || castagnoli&1 == 0 {
		t.Fatal("a generator has the factor x")
	}
}

var checksumSink uint64

// BenchmarkChecksum measures checksum throughput at a small-churn payload
// (1 KiB), an s3d shard (85 KiB: a 256 KiB block split three ways) and a
// whole s3d block (256 KiB).
func BenchmarkChecksum(b *testing.B) {
	for _, n := range []int{1 << 10, 85 << 10, 256 << 10} {
		data := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(data)
		b.Run(fmt.Sprintf("%dKiB", n>>10), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink = Checksum(data)
			}
		})
	}
}
