package corec

import (
	"context"
	"fmt"
	"sort"

	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// RebalanceConfig tunes the paced live migrator. Pacing reuses the
// scrubber's token-bucket primitive: migration traffic drains tokens before
// every object move, so foreground puts and gets keep their latency profile
// while redundancy is being restored in the background.
type RebalanceConfig struct {
	// RateMBps caps migration bandwidth in MiB/s. 0 defaults to 64;
	// negative disables byte pacing (tests and emergency rebuilds).
	RateMBps float64
	// BurstBytes is the byte bucket's burst capacity. 0 defaults to 4 MiB.
	BurstBytes int
	// OpsPerSec additionally caps object moves per second. 0 disables.
	OpsPerSec float64
}

// RebalanceReport tallies one Rebalance pass.
type RebalanceReport struct {
	// Epoch is the ring epoch the pass ran against.
	Epoch uint64
	// Records is the number of distinct directory records examined.
	Records int
	// DirRehomed counts directory records re-pushed to their current shard
	// group (membership changes move shard ownership like data ownership).
	DirRehomed int
	// Moved counts objects re-homed to a new ring owner.
	Moved int
	// Repaired counts replicated objects whose lost replicas were re-pushed
	// to fresh ring successors.
	Repaired int
	// Reencoded counts encoded objects force-reinstalled at their primary
	// because their stripe lost a member the ring no longer contains.
	Reencoded int
	// Handoffs counts old primaries that released their copy after a move.
	Handoffs int
	// Skipped counts records that needed no action.
	Skipped int
	// Errors counts failed moves/repairs (left for the next pass).
	Errors int
	// BytesMoved is the migrated payload volume (what RateMBps paces).
	BytesMoved int64
}

// Rebalance runs one paced migration pass over the whole directory: it
// re-homes directory records to their current ring shard groups, moves
// every object whose ring owner changed (or whose primary is gone) to the
// new owner, re-pushes replicas lost with dead holders, and force-re-encodes
// stripes that lost a member permanently. Safe to run concurrently with
// foreground traffic — moves are idempotent versioned puts, and the token
// bucket bounds the bandwidth they consume. Typically called after a Join,
// by Drain, or after gossip evicts a dead server.
func (c *Cluster) Rebalance(ctx context.Context) (RebalanceReport, error) {
	e := c.elastic
	if e == nil {
		return RebalanceReport{}, fmt.Errorf("corec: Rebalance requires elastic membership (Config.Membership)")
	}
	e.rebalances.Add(1)
	var rep RebalanceReport
	rep.Epoch = e.ring.Epoch()

	rc := RebalanceConfig{}
	if c.cfg.Rebalance != nil {
		rc = *c.cfg.Rebalance
	}
	bytesBucket, opsBucket := rebalanceBuckets(rc)

	cl := c.NewClient()
	metas, stripes, err := c.collectDirectory(ctx, cl, bytesBucket)
	if err != nil {
		return rep, err
	}
	rep.Records = len(metas)

	// Phase 1: re-home directory records. Restore-mode meta updates never
	// clobber live same-version records, and stripe records are re-pushed
	// verbatim, so this phase is idempotent and safe before any data moves.
	mirrors := c.cfg.NLevel
	if mirrors < 1 {
		mirrors = 1
	}
	for _, m := range metas {
		if err := pace(ctx, bytesBucket, nil, metaRecordCost); err != nil {
			return rep, err
		}
		key := m.ID.Key()
		group := c.ringDirGroup(key, mirrors)
		msg := &transport.Message{Kind: transport.MsgMetaUpdate, Flag: true, Meta: m.Clone()}
		if c.sendGroup(ctx, cl, group, msg) {
			rep.DirRehomed++
			e.dirRehomed.Add(1)
		}
	}
	for _, si := range stripes {
		if err := pace(ctx, bytesBucket, nil, metaRecordCost); err != nil {
			return rep, err
		}
		cp := *si
		cp.Members = append([]types.StripeMember(nil), si.Members...)
		group := c.ringDirGroup(si.ID.String(), mirrors)
		msg := &transport.Message{Kind: transport.MsgStripeUpdate, StripeInfo: &cp}
		if c.sendGroup(ctx, cl, group, msg) {
			rep.DirRehomed++
			e.dirRehomed.Add(1)
		}
	}

	// Phase 2: paced data moves, in key order for deterministic tests.
	stripeByID := make(map[types.StripeID]*types.StripeInfo, len(stripes))
	for _, si := range stripes {
		stripeByID[si.ID] = si
	}
	for _, m := range metas {
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		key := m.ID.Key()
		owner := e.ring.OwnerKey(key)
		primaryLive := e.ring.Contains(m.Primary)

		switch {
		case owner != m.Primary || !primaryLive:
			// Ownership moved (join/drain rebalance) or the primary is gone
			// (gossip-evicted death): re-install at the current owner. The
			// fetch transparently uses replicas or degraded stripe decode, so
			// this is also the path that restores redundancy after a loss.
			if err := pace(ctx, bytesBucket, opsBucket, m.Size); err != nil {
				return rep, err
			}
			data, _, ferr := cl.fetchObject(ctx, m.Clone())
			if ferr != nil {
				rep.Errors++
				continue
			}
			if !c.installAt(ctx, cl, owner, m, data) {
				rep.Errors++
				continue
			}
			rep.Moved++
			rep.BytesMoved += int64(len(data))
			e.objectsMoved.Add(1)
			e.bytesMoved.Add(int64(len(data)))
			if !primaryLive {
				rep.Repaired++
				e.objectsRepaired.Add(1)
			} else if m.Primary != owner {
				// The old primary still runs (drain, or an ownership-only
				// move): tell it to release its copy and bookkeeping.
				resp, herr := cl.send(ctx, m.Primary, &transport.Message{
					Kind: transport.MsgHandoff, Key: key, Version: m.Version,
				})
				if herr == nil && resp.Kind == transport.MsgOK && resp.Flag {
					rep.Handoffs++
					e.handoffs.Add(1)
					// The old primary may have committed a background
					// encode after the owner installed the object: its
					// record then supersedes the owner's and names the
					// stripe the handoff just dropped. The handoff held the
					// old primary's write lock, so no such flip can follow
					// it; if the record still names another primary for
					// this version, the owner publishes its record again.
					if cur, ok := cl.lookupMeta(ctx, key); ok && cur.Primary != owner && cur.Version == m.Version {
						_ = c.installAt(ctx, cl, owner, m, data)
					}
				}
			}

		case m.State == types.StateReplicated && c.lostReplicas(m) > 0:
			// Owner unchanged but replica holders left the ring: re-push full
			// copies to the owner's current ring successors.
			if err := pace(ctx, bytesBucket, opsBucket, m.Size); err != nil {
				return rep, err
			}
			if c.repairReplicas(ctx, cl, m, mirrors) {
				rep.Repaired++
				rep.BytesMoved += int64(m.Size)
				e.objectsRepaired.Add(1)
				e.bytesMoved.Add(int64(m.Size))
			} else {
				rep.Errors++
			}

		case m.State == types.StateEncoded && c.stripeDegraded(stripeByID[m.Stripe]):
			// Owner unchanged but the stripe lost a member for good (elastic
			// fleets have no same-id replacement): reconstruct the object and
			// force-reinstall it at the primary, which re-encodes it at full
			// width over the current ring.
			if err := pace(ctx, bytesBucket, opsBucket, m.Size); err != nil {
				return rep, err
			}
			data, _, ferr := cl.fetchObject(ctx, m.Clone())
			if ferr != nil {
				rep.Errors++
				continue
			}
			if !c.installAt(ctx, cl, owner, m, data) {
				rep.Errors++
				continue
			}
			rep.Reencoded++
			rep.BytesMoved += int64(len(data))
			e.reencoded.Add(1)
			e.bytesMoved.Add(int64(len(data)))

		default:
			rep.Skipped++
		}
	}
	return rep, nil
}

// rebalanceBuckets builds the pacing buckets from a config; nil bucket
// means unpaced.
func rebalanceBuckets(rc RebalanceConfig) (bytesBucket, opsBucket *scrub.TokenBucket) {
	rate := rc.RateMBps
	if rate == 0 {
		rate = 64
	}
	if rate > 0 {
		burst := float64(rc.BurstBytes)
		if burst <= 0 {
			burst = 4 << 20
		}
		bytesBucket = scrub.NewTokenBucket(rate*(1<<20), burst)
	}
	if rc.OpsPerSec > 0 {
		opsBucket = scrub.NewTokenBucket(rc.OpsPerSec, rc.OpsPerSec)
	}
	return bytesBucket, opsBucket
}

// metaRecordCost is the approximate wire cost charged to the byte bucket
// per directory record touched during collection and re-homing, so that
// control-plane sweeps are paced like data moves. Without it, back-to-back
// Rebalance passes hammer every server with unthrottled directory dumps
// and meta pushes, which shows up directly in foreground tail latency.
const metaRecordCost = 512

// pace blocks until the buckets grant one move of the given size.
func pace(ctx context.Context, bytesBucket, opsBucket *scrub.TokenBucket, size int) error {
	if opsBucket != nil {
		if err := opsBucket.Take(ctx, 1); err != nil {
			return err
		}
	}
	if bytesBucket != nil {
		if err := bytesBucket.Take(ctx, int64(size)); err != nil {
			return err
		}
	}
	return nil
}

// collectDirectory dumps every live member's directory shard and dedups:
// newest version per object key, one record per stripe id, both sorted.
// Each dump's record volume is charged to the byte bucket so repeated
// passes stay off the foreground path.
func (c *Cluster) collectDirectory(ctx context.Context, cl *Client, bytesBucket *scrub.TokenBucket) ([]*types.ObjectMeta, []*types.StripeInfo, error) {
	members := c.elastic.ring.Members()
	best := make(map[string]*types.ObjectMeta)
	stripes := make(map[types.StripeID]*types.StripeInfo)
	reached := 0
	for _, m := range members {
		resp, err := cl.send(ctx, m, &transport.Message{Kind: transport.MsgDirDump})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		reached++
		if cost := (len(resp.Metas) + len(resp.Stripes) + 1) * metaRecordCost; cost > 0 {
			if err := pace(ctx, bytesBucket, nil, cost); err != nil {
				return nil, nil, err
			}
		}
		for i := range resp.Metas {
			meta := resp.Metas[i]
			key := meta.ID.Key()
			if cur, ok := best[key]; !ok || metaNewer(&meta, cur) {
				best[key] = meta.Clone()
			}
		}
		for i := range resp.Stripes {
			si := resp.Stripes[i]
			if _, ok := stripes[si.ID]; !ok {
				cp := si
				cp.Members = append([]types.StripeMember(nil), si.Members...)
				stripes[si.ID] = &cp
			}
		}
	}
	if reached == 0 && len(members) > 0 {
		return nil, nil, fmt.Errorf("corec: rebalance: no directory shard reachable")
	}
	metas := make([]*types.ObjectMeta, 0, len(best))
	for _, m := range best {
		metas = append(metas, m)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].ID.Key() < metas[j].ID.Key() })
	out := make([]*types.StripeInfo, 0, len(stripes))
	for _, si := range stripes {
		out = append(out, si)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].ID, out[j].ID
		if a.Group != b.Group {
			return a.Group < b.Group
		}
		return a.Seq < b.Seq
	})
	return metas, out, nil
}

// ringDirGroup mirrors the server-side dirGroup computation for elastic
// clusters: owner of "dir:"+key plus domain-diverse ring successors.
func (c *Cluster) ringDirGroup(key string, mirrors int) []types.ServerID {
	ring := c.elastic.ring
	if n := ring.Size(); mirrors >= n {
		mirrors = n - 1
	}
	if mirrors < 0 {
		mirrors = 0
	}
	return ring.KeyGroup("dir:"+key, mirrors+1)
}

// sendGroup delivers a directory message to every group member; true when
// at least one copy landed.
func (c *Cluster) sendGroup(ctx context.Context, cl *Client, group []types.ServerID, msg *transport.Message) bool {
	ok := false
	for _, t := range group {
		cp := *msg
		resp, err := cl.send(ctx, t, &cp)
		if err == nil && resp.AsError() == nil {
			ok = true
		}
	}
	return ok
}

// installAt re-installs an object at a (possibly new) owner via a
// migration put: versioned and idempotent, forced past the equal-version
// short-circuit so a re-encode actually happens.
func (c *Cluster) installAt(ctx context.Context, cl *Client, owner types.ServerID, m *types.ObjectMeta, data []byte) bool {
	resp, err := cl.send(ctx, owner, &transport.Message{
		Kind:    transport.MsgPut,
		Flag:    true,
		Num:     1,
		Var:     m.ID.Var,
		Box:     m.ID.Box,
		Version: m.Version,
		Data:    data,
	})
	return err == nil && resp.AsError() == nil
}

// lostReplicas counts a replicated object's holders that left the ring.
func (c *Cluster) lostReplicas(m *types.ObjectMeta) int {
	lost := 0
	for _, r := range m.Replicas {
		if !c.elastic.ring.Contains(r) {
			lost++
		}
	}
	return lost
}

// stripeDegraded reports whether a stripe references a member the ring no
// longer contains (nil info counts as degraded: geometry unknown).
func (c *Cluster) stripeDegraded(si *types.StripeInfo) bool {
	if si == nil {
		return true
	}
	for _, m := range si.Members {
		if !c.elastic.ring.Contains(m.Server) {
			return true
		}
	}
	return false
}

// repairReplicas re-pushes a replicated object's payload to the primary's
// current ring successors that lack a live copy, then refreshes the
// directory record's replica list.
func (c *Cluster) repairReplicas(ctx context.Context, cl *Client, m *types.ObjectMeta, mirrors int) bool {
	ring := c.elastic.ring
	data, _, err := cl.fetchObject(ctx, m.Clone())
	if err != nil {
		return false
	}
	live := make(map[types.ServerID]bool)
	for _, r := range m.Replicas {
		if ring.Contains(r) {
			live[r] = true
		}
	}
	targets := ring.Targets(m.Primary, c.cfg.NLevel)
	newReps := make([]types.ServerID, 0, len(targets))
	pushedAny := false
	for _, t := range targets {
		if t == m.Primary {
			continue
		}
		if live[t] {
			newReps = append(newReps, t)
			continue
		}
		resp, err := cl.send(ctx, t, &transport.Message{
			Kind:    transport.MsgReplicaPut,
			Var:     m.ID.Var,
			Box:     m.ID.Box,
			Version: m.Version,
			Data:    data,
		})
		if err == nil && resp.AsError() == nil {
			newReps = append(newReps, t)
			pushedAny = true
		}
	}
	if !pushedAny {
		return false
	}
	// Keep surviving out-of-window holders listed too: extra copies serve
	// reads until the scrubber's orphan reaping retires them.
	for r := range live {
		found := false
		for _, t := range newReps {
			if t == r {
				found = true
				break
			}
		}
		if !found {
			newReps = append(newReps, r)
		}
	}
	sort.Slice(newReps, func(i, j int) bool { return newReps[i] < newReps[j] })
	fresh := m.Clone()
	fresh.Replicas = newReps
	group := c.ringDirGroup(m.ID.Key(), mirrors)
	return c.sendGroup(ctx, cl, group, &transport.Message{Kind: transport.MsgMetaUpdate, Meta: fresh})
}
