package server

import (
	"context"
	"time"

	"corec/internal/metrics"
	"corec/internal/policy"
	"corec/internal/scrub"
	"corec/internal/transport"
	"corec/internal/types"
)

// handlePut is the write path: store the object, update the directory, and
// apply the policy's resilience action (replicate, encode, or nothing).
func (s *Server) handlePut(ctx context.Context, req *transport.Message) *transport.Message {
	if len(req.Data) == 0 || req.Var == "" || !req.Box.Valid() {
		return transport.Errf("server %d: malformed put", s.id)
	}
	if s.draining.Load() {
		// Drain fence: retryable, so the client's failover path reroutes the
		// write to the ring successor instead of failing the workflow.
		return &transport.Message{Kind: transport.MsgErr, Flag: true,
			Err: "server draining: writes fenced"}
	}
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	key := id.Key()
	obj := &types.Object{ID: id, Version: req.Version, Data: req.Data}

	// Serialize against concurrent write-path transitions of this key: a
	// background encode of the previous bytes must either commit before
	// this write installs, or observe it and abort.
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()

	// Flag marks a migration put (rebalance moving the object to its new
	// ring owner). Idempotent: if a foreground write already installed the
	// same or a newer version here, keep it and ack — unless Num != 0, the
	// migrator's force-reinstall used to re-run the resilience action for a
	// same-version object (re-encoding a stripe at full width after a
	// coding member died).
	if req.Flag {
		s.mu.Lock()
		cur, have := s.local[key]
		s.mu.Unlock()
		if have && (cur.version > req.Version || (cur.version == req.Version && req.Num == 0)) {
			return transport.Ok()
		}
	}

	// Install the object and capture prior state for transition handling.
	s.mutations.Add(1)
	s.mu.Lock()
	prior, existed := s.local[key]
	var priorState types.ResilienceState
	var priorStripe types.StripeID
	var priorSize int
	if existed {
		priorState = prior.state
		priorStripe = prior.stripe
		priorSize = prior.size
	}
	s.objects[key] = obj
	eff := s.efficiencyLocked()
	// For CoREC the constraint check is against the *projected* efficiency
	// if this object ends up replicated — otherwise an object at the
	// boundary flip-flops between states on every write.
	if s.cfg.Policy.Mode == policy.CoREC {
		projRepl := s.dataRepl + int64(len(req.Data))
		projEnc := s.dataEnc
		if existed {
			switch priorState {
			case types.StateReplicated:
				projRepl -= int64(priorSize)
			case types.StateEncoded:
				projEnc -= int64(priorSize)
			}
		}
		eff = s.cfg.Policy.MixedEfficiency(projRepl, projEnc)
	}
	s.mu.Unlock()

	// Decide the resilience action. CoREC's classification is charged to
	// the classify bucket.
	var action policy.Action
	if s.cfg.Policy.Mode == policy.CoREC {
		start := time.Now()
		action = s.decider.OnPut(id, req.Version, eff)
		s.col.Add(metrics.Classify, time.Since(start))
	} else {
		action = s.decider.OnPut(id, req.Version, eff)
	}

	switch action {
	case policy.ActNone:
		sum := scrub.Checksum(req.Data)
		s.setLocalState(id, req.Version, len(req.Data), types.StateNone, types.StripeID{}, sum)
		meta := s.buildMeta(id, req.Version, len(req.Data), types.StateNone, types.StripeID{}, 0, sum)
		if err := s.dirUpdate(ctx, meta); err != nil {
			return transport.Errf("server %d: metadata update: %v", s.id, err)
		}
		return transport.Ok()

	case policy.ActReplicate:
		// An object that was encoded and is now written becomes replicated
		// again (promotion on write); its old shards are dropped after the
		// directory flips so concurrent readers never miss both states.
		if err := s.replicateObject(ctx, obj); err != nil {
			return transport.Errf("server %d: replicate: %v", s.id, err)
		}
		if existed && priorState == types.StateEncoded {
			if s.cfg.Policy.Mode == policy.CoREC {
				// Defer the old stripe's release off the write path; the
				// worker also re-evaluates whether the object must be
				// re-encoded under the constraint.
				s.deferStripeDrop(key, priorStripe)
				s.enqueueEncode(key)
			} else {
				s.dropStripe(ctx, priorStripe)
			}
		}
		if s.cfg.Policy.Mode == policy.CoREC {
			if cls := s.decider.Classifier(); cls != nil {
				cls.SetEncoded(id, false)
			}
		}
		return transport.Ok()

	case policy.ActEncode:
		// CoREC (Figure 6): the write is acknowledged as soon as the
		// replica guarantees durability; the demotion to erasure coding
		// runs in the background under the encoding token.
		if s.cfg.Policy.Mode == policy.CoREC {
			if err := s.replicateObject(ctx, obj); err != nil {
				return transport.Errf("server %d: replicate: %v", s.id, err)
			}
			if existed && priorState == types.StateEncoded {
				s.deferStripeDrop(key, priorStripe)
			}
			s.enqueueEncode(key)
			return transport.Ok()
		}
		// Baselines encode synchronously on the write path: a replicated
		// object being demoted sheds its replicas inside encodeObject; an
		// encoded object being rewritten re-encodes over the same stripe.
		reuse := types.StripeID{}
		if existed && priorState == types.StateEncoded {
			reuse = priorStripe
		}
		if err := s.encodeObject(ctx, obj, reuse, existed && priorState == types.StateReplicated, 0); err != nil {
			return transport.Errf("server %d: encode: %v", s.id, err)
		}
		return transport.Ok()
	}
	return transport.Errf("server %d: unknown action", s.id)
}

// replicateObject pushes full copies to the replication-group peers and
// records the replicated state.
func (s *Server) replicateObject(ctx context.Context, obj *types.Object) error {
	targets := s.replicaHolders()
	sum := scrub.Checksum(obj.Data)
	start := time.Now()
	for _, t := range targets {
		msg := &transport.Message{
			Kind:    transport.MsgReplicaPut,
			Var:     obj.ID.Var,
			Box:     obj.ID.Box,
			Version: obj.Version,
			Data:    obj.Data,
		}
		resp, err := s.sendRetry(ctx, t, msg)
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			// A dead replica target reduces protection until recovery; the
			// write itself still succeeds (the paper's degraded operation).
			continue
		}
	}
	s.col.Add(metrics.Transport, time.Since(start))

	s.setLocalState(obj.ID, obj.Version, len(obj.Data), types.StateReplicated, types.StripeID{}, sum)
	meta := s.buildMeta(obj.ID, obj.Version, len(obj.Data), types.StateReplicated, types.StripeID{}, 0, sum)
	meta.Replicas = targets
	if err := s.dirUpdate(ctx, meta); err != nil {
		return err
	}
	return nil
}

// setLocalState records bookkeeping for a primary object and maintains the
// storage-efficiency tallies.
func (s *Server) setLocalState(id types.ObjectID, v types.Version, size int, st types.ResilienceState, stripe types.StripeID, sum uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	key := id.Key()
	if old, ok := s.local[key]; ok {
		switch old.state {
		case types.StateReplicated:
			s.dataRepl -= int64(old.size)
		case types.StateEncoded:
			s.dataEnc -= int64(old.size)
		}
	}
	s.local[key] = &localState{id: id, version: v, size: size, state: st, stripe: stripe, sum: sum}
	switch st {
	case types.StateReplicated:
		s.dataRepl += int64(size)
	case types.StateEncoded:
		s.dataEnc += int64(size)
	}
}

func (s *Server) buildMeta(id types.ObjectID, v types.Version, size int, st types.ResilienceState, stripe types.StripeID, shardIdx int, sum uint64) *types.ObjectMeta {
	return &types.ObjectMeta{
		ID:         id,
		Version:    v,
		Seq:        s.nextMetaSeq(),
		Size:       size,
		State:      st,
		Checksum:   sum,
		Primary:    s.id,
		Stripe:     stripe,
		ShardIndex: shardIdx,
	}
}

// handleDelete evicts an object this server is primary for: the full
// copy, its replicas, its stripe shards, its classifier state and its
// directory records all go. Eviction is how a workflow reclaims staging
// memory once a time step has been consumed.
func (s *Server) handleDelete(ctx context.Context, req *transport.Message) *transport.Message {
	key := req.Key
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st, known := s.local[key]
	var stripe types.StripeID
	var state types.ResilienceState
	var id types.ObjectID
	if known {
		stripe = st.stripe
		state = st.state
		id = st.id
		// Remove bookkeeping and release the efficiency tallies.
		switch st.state {
		case types.StateReplicated:
			s.dataRepl -= int64(st.size)
		case types.StateEncoded:
			s.dataEnc -= int64(st.size)
		}
		delete(s.local, key)
	}
	delete(s.objects, key)
	delete(s.replicas, key)
	delete(s.replicaSums, key)
	// A superseded stripe awaiting background release dies with the object.
	var pendingDrop types.StripeID
	hadPending := false
	if s.pendingDrops != nil {
		if d, ok := s.pendingDrops[key]; ok {
			pendingDrop, hadPending = d, true
			delete(s.pendingDrops, key)
		}
	}
	s.mu.Unlock()
	if !known {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	s.mutations.Add(1)
	if hadPending {
		s.dropStripe(ctx, pendingDrop)
	}
	if state == types.StateEncoded {
		s.dropStripe(ctx, stripe)
	} else {
		tStart := time.Now()
		for _, t := range s.replicaHolders() {
			// Dead holder needs no drop; the scrubber reaps orphans.
			_, _ = s.sendRetry(ctx, t, &transport.Message{Kind: transport.MsgReplicaDrop, Key: key})
		}
		s.col.Add(metrics.Transport, time.Since(tStart))
	}
	// Remove the directory records.
	mStart := time.Now()
	// Unreached directory members resync via anti-entropy.
	_ = s.sendToGroup(ctx, s.dirGroup(key), &transport.Message{Kind: transport.MsgMetaDelete, Key: key})
	s.col.Add(metrics.Metadata, time.Since(mStart))
	if cls := s.decider.Classifier(); cls != nil {
		cls.Forget(id)
	}
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// handleHandoff relinquishes primary ownership of an object the migrator
// moved to its new ring owner: the local full copy, bookkeeping and (for
// encoded objects) the old stripe are released. Directory records are NOT
// touched — the migrator already re-homed them to point at the new owner.
// A concurrent foreground write that installed a newer version wins: the
// handoff is refused (Flag false) and the migrator re-examines the object.
func (s *Server) handleHandoff(ctx context.Context, req *transport.Message) *transport.Message {
	key := req.Key
	lk := s.writeLock(key)
	lk.Lock()
	defer lk.Unlock()
	s.mu.Lock()
	st, known := s.local[key]
	if !known || (req.Version != 0 && st.version > req.Version) {
		s.mu.Unlock()
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	stripe, state, id := st.stripe, st.state, st.id
	switch st.state {
	case types.StateReplicated:
		s.dataRepl -= int64(st.size)
	case types.StateEncoded:
		s.dataEnc -= int64(st.size)
	}
	delete(s.local, key)
	delete(s.objects, key)
	var pendingDrop types.StripeID
	hadPending := false
	if s.pendingDrops != nil {
		if d, ok := s.pendingDrops[key]; ok {
			pendingDrop, hadPending = d, true
			delete(s.pendingDrops, key)
		}
	}
	s.mu.Unlock()
	if hadPending {
		s.dropStripe(ctx, pendingDrop)
	}
	if state == types.StateEncoded {
		// The stripe belonged to this object alone; the new owner minted a
		// fresh one, so the old shards are pure surplus.
		s.dropStripe(ctx, stripe)
	}
	// Replica copies at the old holders are left for the scrubber's orphan
	// reaping: a versioned drop here could destroy a same-version replica
	// the new owner just pushed to an overlapping holder set.
	if cls := s.decider.Classifier(); cls != nil {
		cls.Forget(id)
	}
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

// handleGet serves a full object copy: primary copy first, replica second.
// With the scrubber enabled, a copy whose bytes fail their recorded checksum
// is withheld (reported as not found) so the caller falls back to another
// holder or a degraded stripe read instead of consuming rotted bytes; the
// background scrub pass repairs the copy.
func (s *Server) handleGet(req *transport.Message) *transport.Message {
	s.mu.Lock()
	obj, ok := s.objects[req.Key]
	var want uint64
	if ok {
		if st := s.local[req.Key]; st != nil {
			want = st.sum
		}
	} else {
		obj, ok = s.replicas[req.Key]
		want = s.replicaSums[req.Key]
	}
	s.mu.Unlock()
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	if s.scrubEnabled() && want != 0 && scrub.Checksum(obj.Data) != want {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return &transport.Message{
		Kind: transport.MsgGetBytes, Flag: true,
		Var: obj.ID.Var, Box: obj.ID.Box, Version: obj.Version, Data: obj.Data,
	}
}

// handleObjFetch is the server-to-server variant of Get used by helpers and
// recovery; identical semantics.
func (s *Server) handleObjFetch(req *transport.Message) *transport.Message {
	return s.handleGet(req)
}

func (s *Server) handleReplicaPut(req *transport.Message) *transport.Message {
	id := types.ObjectID{Var: req.Var, Box: req.Box}
	key := id.Key()
	sum := scrub.Checksum(req.Data)
	s.mu.Lock()
	s.replicas[key] = &types.Object{ID: id, Version: req.Version, Data: req.Data}
	s.replicaSums[key] = sum
	s.mu.Unlock()
	s.mutations.Add(1)
	return transport.Ok()
}

func (s *Server) handleReplicaDrop(req *transport.Message) *transport.Message {
	s.mu.Lock()
	// A versioned drop only removes replicas at or below that version, so
	// a slow encode task can never discard a newer write's replica.
	dropped := false
	if rep, ok := s.replicas[req.Key]; ok && (req.Version == 0 || rep.Version <= req.Version) {
		delete(s.replicas, req.Key)
		delete(s.replicaSums, req.Key)
		dropped = true
	}
	s.mu.Unlock()
	if dropped {
		s.mutations.Add(1)
	}
	return transport.Ok()
}

func (s *Server) handleShardPut(req *transport.Message) *transport.Message {
	sk := shardKey(req.Stripe, req.ShardIndex)
	sum := scrub.Checksum(req.Data)
	s.mu.Lock()
	s.shardSums[sk] = sum
	if req.StripeInfo != nil {
		s.shardStripe[sk] = *req.StripeInfo
	}
	// Flag set means this shard replaces a full copy held locally (the
	// primary transitioning its own object).
	if req.Flag && req.Key != "" {
		delete(s.objects, req.Key)
	}
	s.mu.Unlock()
	// The version doubles as the shard's time-step tag, feeding the
	// engine's sequential-step prefetch detection; 0 means untagged.
	s.store.PutTagged(sk, req.Data, shardEpoch(req.Version))
	s.mutations.Add(1)
	return transport.Ok()
}

// shardEpoch maps an object version to the storage engine's time-step tag.
func shardEpoch(v types.Version) int64 {
	if v == 0 {
		return -1
	}
	return int64(v)
}

func (s *Server) handleShardGet(req *transport.Message) *transport.Message {
	data, ok := s.store.Get(shardKey(req.Stripe, req.ShardIndex))
	if !ok {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	return &transport.Message{Kind: transport.MsgGetBytes, Flag: true, Data: data}
}

func (s *Server) handleShardDrop(req *transport.Message) *transport.Message {
	sk := shardKey(req.Stripe, req.ShardIndex)
	s.mu.Lock()
	delete(s.shardStripe, sk)
	delete(s.shardSums, sk)
	s.mu.Unlock()
	s.store.Delete(sk)
	s.mutations.Add(1)
	return transport.Ok()
}

// --- encoding token (one per replication group, held by the group leader) ---

func (s *Server) tokenLeader() types.ServerID {
	if s.ring != nil {
		// Elastic mode has no static replication groups to elect a leader
		// from; each server arbitrates its own encodes. The token is a
		// conflict-avoidance optimization, so self-granting stays correct.
		return s.id
	}
	gi := s.groups.ReplicationGroup(s.id)
	return s.groups.ReplicationGroupMembers(gi)[0]
}

func (s *Server) handleTokenAcquire(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tokenBusy {
		return &transport.Message{Kind: transport.MsgOK, Flag: false}
	}
	s.tokenBusy = true
	return &transport.Message{Kind: transport.MsgOK, Flag: true}
}

func (s *Server) handleTokenRelease(req *transport.Message) *transport.Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tokenBusy = false
	return transport.Ok()
}

// acquireToken obtains the replication group's encoding token, retrying
// briefly. If the leader is unreachable (failed) or the token stays busy
// past a short bound, encoding proceeds without it: the token is a
// load-balancing/conflict-avoidance optimization, not a correctness
// requirement (per-object exclusivity comes from primary ownership).
func (s *Server) acquireToken(ctx context.Context) (release func()) {
	leader := s.tokenLeader()
	msg := &transport.Message{Kind: transport.MsgTokenAcquire}
	for attempt := 0; attempt < 8; attempt++ {
		var resp *transport.Message
		var err error
		if leader == s.id {
			resp = s.handleTokenAcquire(msg)
		} else {
			resp, err = s.sendRetry(ctx, leader, msg)
		}
		if err != nil {
			return func() {} // leader down: proceed tokenless
		}
		if resp.Kind == transport.MsgOK && resp.Flag {
			return func() {
				rel := &transport.Message{Kind: transport.MsgTokenRelease}
				if leader == s.id {
					s.handleTokenRelease(rel)
				} else {
					// Lost release: the leader's token lease expires.
					_, _ = s.sendRetry(context.Background(), leader, rel)
				}
			}
		}
		select {
		case <-ctx.Done():
			return func() {}
		case <-time.After(50 * time.Microsecond):
		}
	}
	return func() {} // starvation guard: proceed tokenless
}
