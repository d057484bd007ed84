package server

import (
	"context"
	"fmt"
	"time"

	"corec/internal/erasure"
	"corec/internal/metrics"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// resolveEncodeWorkers maps the Config.EncodeWorkers knob to an erasure
// engine worker count: non-positive means "use the default" (GOMAXPROCS),
// 1 pins the serial row-major path, anything larger is taken as-is.
func resolveEncodeWorkers(n int) int {
	if n <= 0 {
		return erasure.DefaultWorkers()
	}
	return n
}

// encodeObject transitions an object to the erasure-coded state following
// the paper's encoding workflow (Figure 6):
//
//  1. Acquire the replication group's encoding token (conflict avoidance).
//  2. Compare own load with the helper (replica holder); the less busy
//     server performs the expensive split+encode and the remote shard
//     distribution (load balancing).
//  3. Place the k+m shards across the coding group, primary keeping data
//     shard 0; update stripe and object metadata; drop surplus replicas and
//     the full local copy.
//
// reuse carries the existing stripe ID when re-encoding an updated object
// (zero value mints a fresh stripe). dropReplicas is set when the object
// was previously replicated. sum is the checksum of obj.Data when the
// caller already holds it (the primary's local record); 0 means compute it.
func (s *Server) encodeObject(ctx context.Context, obj *types.Object, reuse types.StripeID, dropReplicas bool, sum uint64) error {
	if s.codec == nil {
		return fmt.Errorf("no codec configured")
	}
	key := obj.ID.Key()
	members := s.codingMembers()
	k, m := s.codec.DataShards(), s.codec.ParityShards()
	if len(members) != k+m {
		return fmt.Errorf("coding group has %d members, stripe needs %d", len(members), k+m)
	}

	stripeID := reuse
	if stripeID == (types.StripeID{}) {
		// Elastic mode has no static coding-group index; the minting server's
		// id serves as the group. The sequence half is the server's hybrid
		// logical clock with the minting server's id folded into the low
		// byte: the clock makes ids unique across the lifetimes of one
		// server id — including a crashed process restarted in a fresh OS
		// process, where any in-memory counter would restart and re-mint a
		// dead predecessor's ids, silently rebinding the stripe record (and
		// its shard keys) that surviving objects' metadata still points at —
		// and the id byte keeps servers sharing a static coding group from
		// colliding when they mint in the same microsecond.
		group := int(s.id)
		if s.ring == nil {
			group = s.groups.CodingGroup(s.id)
		}
		stripeID = types.StripeID{
			Group: group,
			Seq:   s.nextMetaSeq()<<8 | uint64(s.id)&0xff,
		}
	}

	release := s.acquireToken(ctx)
	defer release()

	// Split locally: cheap copies, always done by the primary so it can
	// keep shard 0 without any transfer.
	shards, shardSize := s.codec.Split(obj.Data)
	info := &types.StripeInfo{ID: stripeID, K: k, M: m, ShardSize: shardSize}
	for i, member := range members {
		sm := types.StripeMember{Server: member, Index: i}
		if i == 0 {
			sm.ObjectKey = key
		}
		info.Members = append(info.Members, sm)
	}

	// Load-balancing decision: delegate the encode+distribute to the helper
	// (the replica holder) when it is measurably less busy.
	delegated := false
	if s.cfg.HelperLoadDelta >= 0 && s.cfg.Policy.Mode == policy.CoREC && dropReplicas {
		if helper, ok := s.pickHelper(ctx); ok {
			delegated = s.delegateEncode(ctx, helper, obj, info)
		}
	}

	if !delegated {
		// Local encode: GF math charged to the encode bucket.
		start := time.Now()
		if err := s.codec.Encode(shards); err != nil {
			return err
		}
		s.col.Add(metrics.Encode, time.Since(start))

		tStart := time.Now()
		for i := 1; i < len(members); i++ {
			msg := &transport.Message{
				Kind:       transport.MsgShardPut,
				Stripe:     stripeID,
				ShardIndex: i,
				K:          k, M: m, ShardSize: shardSize,
				Data:       shards[i],
				StripeInfo: info,
				// Version rides along as the holders' time-step tag.
				Version: obj.Version,
			}
			resp, err := s.sendRetry(ctx, members[i], msg)
			if err == nil {
				err = resp.AsError()
			}
			if err != nil {
				// A dead group member leaves the stripe degraded until
				// recovery; tolerated within m losses.
				continue
			}
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
	}

	// Commit, stage 1: install the primary's data shard 0, but keep the
	// full copy until the directory flip lands so a concurrent reader
	// holding replicated-state metadata always finds the object. Abort if
	// a concurrent write superseded the version we encoded.
	sk := shardKey(stripeID, 0)
	s.mu.Lock()
	cur, stillThere := s.objects[key]
	// Identity, not version: a rewrite within the same time step reuses
	// the version number, and committing the old bytes over it would lose
	// the newer write.
	if !stillThere || cur != obj {
		s.mu.Unlock()
		s.dropStripeMembers(ctx, info)
		return nil
	}
	s.shardSums[sk] = scrub.Checksum(shards[0])
	s.shardStripe[sk] = *info
	// The engine install happens under s.mu so it is atomic with the
	// identity check above (the engine never takes s.mu back).
	s.store.PutTagged(sk, shards[0], shardEpoch(obj.Version))
	s.mu.Unlock()
	s.mutations.Add(1)

	// Commit, stage 2: flip the directory (stripe record first, so the
	// encoded metadata always resolves).
	if err := s.dirUpdateStripe(ctx, info); err != nil {
		return err
	}
	if sum == 0 {
		sum = scrub.Checksum(obj.Data)
	}
	s.setLocalState(obj.ID, obj.Version, len(obj.Data), types.StateEncoded, stripeID, sum)
	meta := s.buildMeta(obj.ID, obj.Version, len(obj.Data), types.StateEncoded, stripeID, 0, sum)
	if err := s.dirUpdate(ctx, meta); err != nil {
		return err
	}

	// Commit, stage 3: release the full copy (identity-checked: a racing
	// newer write keeps its data) and shed the surplus replicas.
	s.mu.Lock()
	if cur, ok := s.objects[key]; ok && cur == obj {
		delete(s.objects, key)
	}
	s.mu.Unlock()
	if dropReplicas {
		tStart := time.Now()
		for _, t := range s.replicaHolders() {
			msg := &transport.Message{Kind: transport.MsgReplicaDrop, Key: key, Version: obj.Version}
			_, _ = s.sendRetry(ctx, t, msg) // dead holder needs no drop
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
	}

	if cls := s.decider.Classifier(); cls != nil {
		cls.SetEncoded(obj.ID, true)
	}
	return nil
}

// pickHelper returns the first replica holder whose load is lower than the
// local load by more than HelperLoadDelta. An idle server skips the load
// probes entirely — delegation only pays when the primary is busy.
func (s *Server) pickHelper(ctx context.Context) (types.ServerID, bool) {
	own := s.Load()
	if own <= s.cfg.HelperLoadDelta {
		return types.InvalidServer, false
	}
	for _, t := range s.replicaHolders() {
		resp, err := s.sendRetry(ctx, t, &transport.Message{Kind: transport.MsgLoadQuery})
		if err != nil || resp.Kind != transport.MsgOK {
			continue
		}
		if own > resp.Num+s.cfg.HelperLoadDelta {
			return t, true
		}
	}
	return types.InvalidServer, false
}

// delegateEncode asks the helper (which holds a replica of the object) to
// perform the encode and remote shard distribution. Returns false when the
// delegation failed and the caller must encode locally.
func (s *Server) delegateEncode(ctx context.Context, helper types.ServerID, obj *types.Object, info *types.StripeInfo) bool {
	msg := &transport.Message{
		Kind:       transport.MsgEncodeDelegate,
		Key:        obj.ID.Key(),
		Version:    obj.Version,
		Stripe:     info.ID,
		K:          info.K,
		M:          info.M,
		ShardSize:  info.ShardSize,
		StripeInfo: info,
		Num:        int64(s.id), // primary: skip its shard during distribution
	}
	start := time.Now()
	resp, err := s.sendRetry(ctx, helper, msg)
	s.col.Add(metrics.Transport, time.Since(start))
	if err != nil || resp.AsError() != nil || resp.Kind != transport.MsgOK || !resp.Flag {
		return false
	}
	return true
}

// handleEncodeDelegate performs an encode on behalf of the primary, using
// the local replica as the data source. Shards destined for the primary are
// skipped: the primary cuts its own shard 0 locally.
func (s *Server) handleEncodeDelegate(ctx context.Context, req *transport.Message) *transport.Message {
	if s.codec == nil || req.StripeInfo == nil {
		return transport.Errf("server %d: malformed delegate request", s.id)
	}
	s.mu.Lock()
	obj, ok := s.replicas[req.Key]
	s.mu.Unlock()
	if !ok || obj.Version != req.Version {
		// No replica, or a stale/newer one relative to the version the
		// primary is transitioning; refuse so the primary encodes the
		// authoritative bytes itself.
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	primary := types.ServerID(req.Num)

	shards, shardSize := s.codec.Split(obj.Data)
	if shardSize != req.StripeInfo.ShardSize {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	start := time.Now()
	if err := s.codec.Encode(shards); err != nil {
		return transport.Errf("server %d: delegate encode: %v", s.id, err)
	}
	s.col.Add(metrics.Encode, time.Since(start))

	tStart := time.Now()
	for _, member := range req.StripeInfo.Members {
		if member.Index == 0 || member.Server == primary {
			continue // primary keeps shard 0 from its own copy
		}
		msg := &transport.Message{
			Kind:       transport.MsgShardPut,
			Stripe:     req.StripeInfo.ID,
			ShardIndex: member.Index,
			K:          req.K, M: req.M, ShardSize: shardSize,
			Data:       shards[member.Index],
			StripeInfo: req.StripeInfo,
			Version:    req.Version,
		}
		if member.Server == s.id {
			s.handleShardPut(msg)
			continue
		}
		resp, err := s.sendRetry(ctx, member.Server, msg)
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			continue
		}
	}
	s.col.Add(metrics.Transport, time.Since(tStart))
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// dropStripe removes the shards of a stripe from the coding group, then
// its stripe record from the directory (used when an encoded object is
// promoted back to replication, rewritten, re-encoded or deleted). A
// reader still holding metadata that names the stripe fails its stripe
// lookup and re-reads the object's current record.
func (s *Server) dropStripe(ctx context.Context, id types.StripeID) {
	if id == (types.StripeID{}) {
		return
	}
	info, ok := s.dirLookupStripe(ctx, id)
	if !ok {
		return
	}
	s.dropStripeMembers(ctx, info)
	start := time.Now()
	// Mirrors that miss the delete get it as a hint like any other
	// directory write.
	_ = s.sendToGroup(ctx, s.dirGroup(id.String()), &transport.Message{Kind: transport.MsgMetaDelete, Stripe: id})
	s.col.Add(metrics.Metadata, time.Since(start))
}

// dropStripeMembers drops every shard of the stripe from its members.
func (s *Server) dropStripeMembers(ctx context.Context, info *types.StripeInfo) {
	start := time.Now()
	for _, member := range info.Members {
		msg := &transport.Message{Kind: transport.MsgShardDrop, Stripe: info.ID, ShardIndex: member.Index}
		if member.Server == s.id {
			s.handleShardDrop(msg)
			continue
		}
		_, _ = s.sendRetry(ctx, member.Server, msg) // dead member holds nothing
	}
	s.col.Add(metrics.Transport, time.Since(start))
}

// EndTimeStep applies CoREC's end-of-step transitions: demote cooled
// objects to erasure coding, and promote reheated encoded objects back to
// replication while the storage constraint has slack. Other policies are
// no-ops. It returns the number of demotions and promotions performed.
func (s *Server) EndTimeStep(ctx context.Context, ts types.Version) (demoted, promoted int) {
	// Step boundaries double as the anti-entropy point for the metadata
	// directory: re-deliver group writes that missed a mirror, under every
	// policy mode.
	s.flushMirrorHints(ctx)
	if s.cfg.Policy.Mode != policy.CoREC {
		return 0, 0
	}
	start := time.Now()
	toEncode, toReplicate := s.decider.Transitions(ts, s.promotionBudget())
	s.col.Add(metrics.Classify, time.Since(start))

	for _, id := range toEncode {
		key := id.Key()
		s.mu.Lock()
		st, ok := s.local[key]
		_, haveObj := s.objects[key]
		s.mu.Unlock()
		if !ok || !haveObj || st.state != types.StateReplicated {
			continue
		}
		s.enqueueEncode(key)
		demoted++
	}
	for _, id := range toReplicate {
		if s.promoteObject(ctx, id) {
			promoted++
		}
	}
	return demoted, promoted
}

// handleStepEnd runs end-of-step processing on behalf of a remote driver
// (MsgStepEnd): the multi-process analogue of Cluster.EndTimeStep, which
// only reaches in-process servers. The reply is sent after the background
// encode queue drains, so a step boundary observed over the wire is the
// same consistent point the in-process path provides. Num carries
// demotions<<32|promotions.
func (s *Server) handleStepEnd(ctx context.Context, req *transport.Message) *transport.Message {
	demoted, promoted := s.EndTimeStep(ctx, req.Version)
	s.WaitEncodeIdle()
	return &transport.Message{Kind: transport.MsgOK, Num: int64(demoted)<<32 | int64(promoted)}
}

// promotionBudget estimates how many encoded objects can be promoted to
// replication while keeping efficiency at or above the constraint.
func (s *Server) promotionBudget() int {
	sMin := s.cfg.Policy.StorageEfficiencyMin
	if sMin <= 0 {
		return 1 << 20
	}
	s.mu.Lock()
	dataRepl, dataEnc := s.dataRepl, s.dataEnc
	var objCount int
	var objBytes int64
	for _, st := range s.local {
		if st.state == types.StateEncoded {
			objCount++
			objBytes += int64(st.size)
		}
	}
	s.mu.Unlock()
	if objCount == 0 {
		return 0
	}
	avg := objBytes / int64(objCount)
	if avg == 0 {
		avg = 1
	}
	budget := 0
	for i := 0; i < objCount; i++ {
		dataRepl += avg
		dataEnc -= avg
		if s.cfg.Policy.MixedEfficiency(dataRepl, dataEnc) < sMin {
			break
		}
		budget++
	}
	return budget
}

// promoteObject transitions an encoded object back to full replication:
// reassemble the data from its shards, store the full copy, push replicas,
// drop the stripe.
func (s *Server) promoteObject(ctx context.Context, id types.ObjectID) bool {
	key := id.Key()
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st, ok := s.local[key]
	s.mu.Unlock()
	if !ok || st.state != types.StateEncoded {
		return false
	}
	// Recheck the constraint with live numbers before paying for the
	// transition.
	if sMin := s.cfg.Policy.StorageEfficiencyMin; sMin > 0 {
		s.mu.Lock()
		eff := s.cfg.Policy.MixedEfficiency(s.dataRepl+int64(st.size), s.dataEnc-int64(st.size))
		s.mu.Unlock()
		if eff < sMin {
			return false
		}
	}
	data, _, err := s.fetchStripeData(ctx, st.stripe, st.size)
	if err != nil {
		return false
	}
	obj := &types.Object{ID: id, Version: st.version, Data: data}
	s.mu.Lock()
	s.objects[key] = obj
	s.mu.Unlock()
	// Replicate (and update the directory) before dropping the stripe so a
	// concurrent reader always finds the object through one state or the
	// other.
	if err := s.replicateObject(ctx, obj); err != nil {
		return false
	}
	s.dropStripe(ctx, st.stripe)
	if cls := s.decider.Classifier(); cls != nil {
		cls.SetEncoded(id, false)
	}
	return true
}
