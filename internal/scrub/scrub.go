// Package scrub is the anti-entropy subsystem's decision layer: content
// checksums for data at rest, the token-bucket budget that paces background
// verification so foreground put/get latency is unaffected, and the
// configuration and accounting types the staging server's scrubber engine
// executes against.
//
// PR 1 protected data in flight (CRC32 wire frames, retries, failover);
// this package protects data at rest. A bit flip in staging memory, a
// partially applied failover write, or a divergent mirror would otherwise
// sit undetected until a get or a recovery silently returned bad bytes —
// the lazy-recovery design (Section III-D) assumes surviving copies are
// correct, and scrubbing is what makes that assumption hold.
//
// The package is deliberately free of transport and server dependencies so
// the pacing and accounting logic stays pure and unit-testable; the
// execution engine lives in internal/server (scrub.go) and is wired into
// the cluster and monitor layers by the corec package.
package scrub

import (
	"context"
	"fmt"
	"hash/crc32"
	"time"
)

// castagnoli is the CRC-32C table. With the IEEE polynomial it makes up
// the two halves of every at-rest checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the content checksum of a payload: the CRC-32 (IEEE) of
// data in the high 32 bits and its CRC-32C (Castagnoli) in the low 32 bits.
// Both halves run on the CPU's CRC instructions (CLMUL and SSE4.2 on amd64,
// the CRC32 instructions on arm64) at several GB/s per core, which matters
// because every holder of a put sums it. The two generator polynomials are
// coprime, so by the Chinese remainder theorem the pair is equivalent to
// one CRC whose generator is their degree-64 product: like CRC-64 it
// detects every burst error of 64 bits or fewer. A keyed hash is
// unnecessary because the threat model is bit rot, not an adversary.
//
// The zero value is reserved to mean "no checksum recorded" (a record
// written before scrubbing existed, pending backfill), so the rare genuine
// zero digest is folded onto 1.
func Checksum(data []byte) uint64 {
	s := uint64(crc32.ChecksumIEEE(data))<<32 | uint64(crc32.Checksum(data, castagnoli))
	if s == 0 {
		s = 1
	}
	return s
}

// Depth selects how far a scrub pass reaches beyond this server's memory.
type Depth int

// Verify depths, cumulative: each level includes the previous ones.
const (
	// DepthLocal verifies locally stored bytes (primary copies, replicas,
	// shards) against their recorded checksums. No network traffic.
	DepthLocal Depth = iota
	// DepthReplica additionally cross-checks replication groups: the
	// primary exchanges checksums with its replica holders and re-syncs
	// divergent or missing mirrors.
	DepthReplica
	// DepthStripe additionally verifies coded stripes: per-member shard
	// probes, spot-decode of the stripe, re-protection of stripes left
	// under-protected by a missing shard.
	DepthStripe
)

// String implements fmt.Stringer.
func (d Depth) String() string {
	switch d {
	case DepthLocal:
		return "local"
	case DepthReplica:
		return "replica"
	case DepthStripe:
		return "stripe"
	default:
		return fmt.Sprintf("Depth(%d)", int(d))
	}
}

// Config tunes one server's scrubber.
type Config struct {
	// Interval is the gap between background scrub passes. Default 2s
	// (scaled experiment time; production deployments run hours).
	Interval time.Duration
	// BytesPerSec caps the scan's read bandwidth (payload bytes checksummed
	// or fetched per second). 0 means unlimited.
	BytesPerSec int64
	// OpsPerSec caps scan operations (item verifications and remote
	// checksum probes) per second. 0 means unlimited.
	OpsPerSec int64
	// Burst is the token-bucket capacity in bytes; it bounds how much the
	// scrubber may read back-to-back before pacing kicks in. Default
	// max(BytesPerSec/4, 64KiB).
	Burst int64
	// Depth selects the verify depth. Default DepthStripe (full).
	Depth Depth
}

// DefaultConfig returns the full-depth scrubber configuration used when a
// cluster enables scrubbing without tuning it.
func DefaultConfig() Config {
	return Config{
		Interval:    2 * time.Second,
		BytesPerSec: 64 << 20, // 64 MiB/s: background-class bandwidth
		OpsPerSec:   0,
		Depth:       DepthStripe,
	}
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Burst <= 0 {
		c.Burst = c.BytesPerSec / 4
		if c.Burst < 64<<10 {
			c.Burst = 64 << 10
		}
	}
	return c
}

// Validate rejects nonsensical budgets.
func (c Config) Validate() error {
	if c.BytesPerSec < 0 || c.OpsPerSec < 0 || c.Burst < 0 {
		return fmt.Errorf("scrub: negative budget")
	}
	if c.Interval < 0 {
		return fmt.Errorf("scrub: negative interval")
	}
	if c.Depth < DepthLocal || c.Depth > DepthStripe {
		return fmt.Errorf("scrub: unknown depth %d", int(c.Depth))
	}
	return nil
}

// TokenBucket is a classic token bucket: rate tokens accrue per second up
// to burst; Take blocks until the requested tokens are available. It is
// safe for use by one consumer goroutine (the scrubber loop); the clock is
// injectable for deterministic tests.
type TokenBucket struct {
	rate   float64 // tokens per second; <= 0 disables pacing
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(context.Context, time.Duration) error
}

// NewTokenBucket builds a bucket accruing rate tokens/sec with the given
// capacity. A non-positive rate disables pacing (Take never blocks). The
// bucket starts full, so a scan's first burst proceeds immediately.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	return newTokenBucketAt(rate, burst, nil)
}

func newTokenBucketAt(rate, burst float64, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	if burst < 1 {
		burst = 1
	}
	b := &TokenBucket{rate: rate, burst: burst, tokens: burst, now: now}
	b.last = now()
	b.sleep = func(ctx context.Context, d time.Duration) error {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
	return b
}

// refill credits tokens accrued since the last call.
func (b *TokenBucket) refill() {
	t := b.now()
	if el := t.Sub(b.last); el > 0 {
		b.tokens += el.Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = t
}

// Take blocks until n tokens are available, then consumes them. Requests
// larger than the burst are allowed (they drain the bucket and wait out the
// deficit) so one oversized object cannot wedge the scan. Returns early
// with the context's error on cancellation.
func (b *TokenBucket) Take(ctx context.Context, n int64) error {
	if b == nil || b.rate <= 0 || n <= 0 {
		return nil
	}
	b.refill()
	b.tokens -= float64(n)
	if b.tokens >= 0 {
		return nil
	}
	// Sleep off the deficit; tokens stay negative so subsequent Takes keep
	// paying for the overdraft (long-run rate holds even with n > burst).
	wait := time.Duration(-b.tokens / b.rate * float64(time.Second))
	return b.sleep(ctx, wait)
}

// Budget bundles the two pacing dimensions of a scrub pass.
type Budget struct {
	bytes *TokenBucket
	ops   *TokenBucket
}

// NewBudget builds the pacing state for one scrub pass from the config.
func NewBudget(cfg Config) *Budget {
	cfg = cfg.withDefaults()
	bud := &Budget{}
	if cfg.BytesPerSec > 0 {
		bud.bytes = NewTokenBucket(float64(cfg.BytesPerSec), float64(cfg.Burst))
	}
	if cfg.OpsPerSec > 0 {
		// Ops bursts scale with the rate; a tenth of a second of headroom.
		burst := float64(cfg.OpsPerSec) / 10
		if burst < 4 {
			burst = 4
		}
		bud.ops = NewTokenBucket(float64(cfg.OpsPerSec), burst)
	}
	return bud
}

// Charge pays for one scan operation touching n payload bytes, blocking
// until the budget allows it.
func (b *Budget) Charge(ctx context.Context, n int64) error {
	if b == nil {
		return nil
	}
	if err := b.ops.Take(ctx, 1); err != nil {
		return err
	}
	return b.bytes.Take(ctx, n)
}

// Report tallies the outcomes of one or more scrub passes. All fields are
// monotonic counts; Add merges another report in.
type Report struct {
	// Scanned is the number of locally stored items (primary copies,
	// replicas, shards) whose bytes were verified.
	Scanned int64
	// Bytes is the total payload bytes read by the scan (local verifies
	// plus fetched shards and copies).
	Bytes int64
	// Corruptions is the number of items whose stored bytes failed their
	// checksum (at-rest rot detected).
	Corruptions int64
	// Repairs is the number of corrupt or divergent items restored from a
	// healthy copy or by stripe reconstruction.
	Repairs int64
	// Divergent is the number of replica cross-checks that found a mirror
	// disagreeing with the primary (missing, stale, or rotted).
	Divergent int64
	// Reencodes is the number of stripe shards re-materialized onto a
	// member that had lost them (under-protected stripes re-protected).
	Reencodes int64
	// Backfills is the number of items whose checksum was computed and
	// recorded for the first time (records predating scrubbing).
	Backfills int64
	// Skipped is the number of checks abandoned because a peer was
	// unreachable (a dead server is not corruption; recovery owns it).
	Skipped int64
	// Unrepaired is the number of detected corruptions that could not be
	// repaired (no healthy copy; StateNone objects).
	Unrepaired int64
}

// Add merges o into r.
func (r *Report) Add(o Report) {
	r.Scanned += o.Scanned
	r.Bytes += o.Bytes
	r.Corruptions += o.Corruptions
	r.Repairs += o.Repairs
	r.Divergent += o.Divergent
	r.Reencodes += o.Reencodes
	r.Backfills += o.Backfills
	r.Skipped += o.Skipped
	r.Unrepaired += o.Unrepaired
}

// String implements fmt.Stringer for log-friendly summaries.
func (r Report) String() string {
	return fmt.Sprintf("scanned=%d bytes=%d corrupt=%d repaired=%d divergent=%d reencoded=%d backfilled=%d skipped=%d unrepaired=%d",
		r.Scanned, r.Bytes, r.Corruptions, r.Repairs, r.Divergent, r.Reencodes, r.Backfills, r.Skipped, r.Unrepaired)
}
