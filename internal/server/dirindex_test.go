package server

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"corec/internal/geometry"
	"corec/internal/transport"
	"corec/internal/types"
)

// newDirShard returns a server holding only an empty directory shard, the
// state the MetaUpdate/MetaDelete/MetaQuery handlers touch.
func newDirShard() *Server {
	return &Server{
		dir:        make(map[string]*types.ObjectMeta),
		dirIdx:     make(dirIndex),
		dirStripes: make(map[types.StripeID]*types.StripeInfo),
	}
}

// refShard is the reference directory shard: a plain map whose queries
// sort every key and scan the whole shard.
type refShard map[string]*types.ObjectMeta

func (r refShard) update(m *types.ObjectMeta, restore bool) {
	key := m.ID.Key()
	if cur, ok := r[key]; ok {
		if cur.Version > m.Version || (cur.Version == m.Version && m.Seq < cur.Seq) {
			return
		}
		if restore && cur.Version == m.Version && m.Seq <= cur.Seq {
			return
		}
	}
	r[key] = m.Clone()
}

func (r refShard) query(name string, box geometry.Box) *transport.Message {
	resp := &transport.Message{Kind: transport.MsgOK}
	for _, k := range sortedKeys(map[string]*types.ObjectMeta(r)) {
		m := r[k]
		if m.ID.Var != name || (box.Valid() && !m.ID.Box.Intersects(box)) {
			continue
		}
		resp.Metas = append(resp.Metas, *m.Clone())
	}
	return resp
}

// randBox draws a box of dims dimensions on a small grid so records
// overlap often; rarely it reaches the ends of the int64 range, where a
// dim-0 extent does not fit in an int64.
func randBox(rng *rand.Rand, dims int) geometry.Box {
	b := geometry.Box{Lo: make([]int64, dims), Hi: make([]int64, dims)}
	for d := 0; d < dims; d++ {
		lo := int64(rng.Intn(96)) - 16
		b.Lo[d], b.Hi[d] = lo, lo+1+int64(rng.Intn(12))
	}
	if dims > 0 && rng.Intn(40) == 0 {
		b.Lo[0], b.Hi[0] = math.MinInt64+int64(rng.Intn(3)), math.MaxInt64-int64(rng.Intn(3))
	}
	return b
}

// randQueryBox draws a query: mostly 1-D or 3-D regions (which also query
// records of the other dimensionality), sometimes an invalid box that
// selects the whole variable, sometimes a window at the int64 limits.
func randQueryBox(rng *rand.Rand) geometry.Box {
	switch rng.Intn(10) {
	case 0:
		return geometry.Box{}
	case 1:
		return geometry.Box{Lo: []int64{5}, Hi: []int64{5}}
	case 2:
		lo := math.MaxInt64 - int64(rng.Intn(8)) - 1
		return geometry.Box{Lo: []int64{lo}, Hi: []int64{math.MaxInt64}}
	case 3, 4, 5:
		return randBox(rng, 3)
	}
	return randBox(rng, 1)
}

func TestDirIndexMatchesLinearScan(t *testing.T) {
	vars := []string{"a", "b", "temp", "v@x"}
	for seed := int64(1); seed <= 16; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, ref := newDirShard(), refShard{}
		// A fixed pool of identities, so updates often hit existing keys.
		var pool []types.ObjectID
		for i := 0; i < 48; i++ {
			dims := 1
			switch rng.Intn(8) {
			case 0, 1, 2:
				dims = 3
			case 3:
				if rng.Intn(6) == 0 {
					dims = 0 // a dimensionless record, reachable only whole-variable
				}
			}
			pool = append(pool, types.ObjectID{Var: vars[rng.Intn(len(vars))], Box: randBox(rng, dims)})
		}
		for op := 0; op < 1500; op++ {
			id := pool[rng.Intn(len(pool))]
			if rng.Intn(6) == 0 {
				key := id.Key()
				s.handleMetaDelete(&transport.Message{Kind: transport.MsgMetaDelete, Key: key})
				delete(ref, key)
			} else {
				meta := &types.ObjectMeta{
					ID:      types.ObjectID{Var: id.Var, Box: id.Box.Clone()},
					Version: types.Version(1 + rng.Intn(3)),
					Seq:     uint64(rng.Intn(5)),
					Size:    rng.Intn(4096),
					State:   types.ResilienceState(rng.Intn(3)),
					Primary: types.ServerID(rng.Intn(8)),
				}
				restore := rng.Intn(4) == 0
				s.handleMetaUpdate(&transport.Message{Kind: transport.MsgMetaUpdate, Meta: meta, Flag: restore})
				ref.update(meta, restore)
			}
			for q := 0; q < 2; q++ {
				name := vars[rng.Intn(len(vars))]
				if rng.Intn(20) == 0 {
					name = "absent"
				}
				box := randQueryBox(rng)
				got := s.handleMetaQuery(&transport.Message{Kind: transport.MsgMetaQuery, Var: name, Box: box})
				want := ref.query(name, box)
				if !reflect.DeepEqual(got.Metas, want.Metas) {
					t.Fatalf("seed %d op %d: query %s %v returned %d records, reference %d",
						seed, op, name, box, len(got.Metas), len(want.Metas))
				}
				if !bytes.Equal(transport.Encode(got, nil), transport.Encode(want, nil)) {
					t.Fatalf("seed %d op %d: query %s %v response bytes differ", seed, op, name, box)
				}
			}
		}
		if !reflect.DeepEqual(map[string]*types.ObjectMeta(ref), s.dir) {
			t.Fatalf("seed %d: shard contents differ from the reference", seed)
		}
		indexed := 0
		for _, v := range s.dirIdx {
			indexed += len(v.entries)
		}
		if indexed != len(s.dir) {
			t.Fatalf("seed %d: index holds %d keys, shard %d", seed, indexed, len(s.dir))
		}
	}
}

// BenchmarkMetaQuery measures a one-slot region query against a shard of
// 1-D records, the query every Get sends to each directory shard.
func BenchmarkMetaQuery(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			s := newDirShard()
			for i := 0; i < n; i++ {
				lo := int64(i) * 128
				meta := &types.ObjectMeta{
					ID:      types.ObjectID{Var: "churn", Box: geometry.Box{Lo: []int64{lo}, Hi: []int64{lo + 128}}},
					Version: 1,
					State:   types.StateReplicated,
				}
				s.handleMetaUpdate(&transport.Message{Kind: transport.MsgMetaUpdate, Meta: meta})
			}
			lo := int64(n/2) * 128
			req := &transport.Message{Kind: transport.MsgMetaQuery, Var: "churn", Box: geometry.Box{Lo: []int64{lo}, Hi: []int64{lo + 128}}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if resp := s.handleMetaQuery(req); len(resp.Metas) != 1 {
					b.Fatalf("query returned %d records, want 1", len(resp.Metas))
				}
			}
		})
	}
}
