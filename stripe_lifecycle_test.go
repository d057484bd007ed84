package corec

import (
	"bytes"
	"context"
	"testing"

	"corec/internal/transport"
	"corec/internal/types"
)

// dirStripeRecords dumps every server's directory shard and returns, per
// server, the stripe records it holds.
func dirStripeRecords(t *testing.T, c *Cluster, cl *Client) [][]types.StripeID {
	t.Helper()
	out := make([][]types.StripeID, c.NumServers())
	for i := range out {
		resp, err := cl.send(context.Background(), ServerID(i), &transport.Message{Kind: transport.MsgDirDump})
		if err == nil {
			err = resp.AsError()
		}
		if err != nil {
			t.Fatalf("dump server %d: %v", i, err)
		}
		for _, si := range resp.Stripes {
			out[i] = append(out[i], si.ID)
		}
	}
	return out
}

func waitEncodeIdle(c *Cluster) {
	for i := 0; i < c.NumServers(); i++ {
		c.Server(ServerID(i)).WaitEncodeIdle()
	}
}

// TestStripeRecordsFreedOnReencode rewrites encoded objects over many
// rounds. In CoREC mode a rewrite of an encoded object drops its stripe
// and the re-encode mints a fresh one, so without freeing the dropped
// stripe's directory records the shards would grow with every encode.
func TestStripeRecordsFreedOnReencode(t *testing.T) {
	c := testCluster(t, PolicyCoREC)
	cl := c.NewClient()
	ctx := context.Background()
	const name, objs, rounds = "reenc", 24, 10
	boxes := make([]Box, objs)
	want := make([][]byte, objs)
	for i := range boxes {
		boxes[i] = Box{Lo: []int64{int64(i) * 128}, Hi: []int64{int64(i+1) * 128}}
	}
	minted := make(map[types.StripeID]bool)
	for r := 0; r < rounds; r++ {
		for i, b := range boxes {
			want[i] = regionData(t, b, 8, int64(r*objs+i))
			if err := cl.Put(ctx, name, b, 1, want[i]); err != nil {
				t.Fatalf("round %d put %d: %v", r, i, err)
			}
		}
		waitEncodeIdle(c)
		for i, b := range boxes {
			got, err := cl.Get(ctx, name, b, 1)
			if err != nil {
				t.Fatalf("round %d get %d: %v", r, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("round %d object %d: read differs from the acked write", r, i)
			}
		}
		metas, err := cl.Query(ctx, name, Box{})
		if err != nil {
			t.Fatal(err)
		}
		live := make(map[types.StripeID]bool)
		for _, m := range metas {
			if m.State == types.StateEncoded {
				live[m.Stripe] = true
				minted[m.Stripe] = true
			}
		}
		total := 0
		for srv, ids := range dirStripeRecords(t, c, cl) {
			total += len(ids)
			for _, id := range ids {
				if !live[id] {
					t.Fatalf("round %d: server %d still holds the record of dropped stripe %v", r, srv, id)
				}
			}
		}
		if bound := len(live) * (c.cfg.NLevel + 1); total > bound {
			t.Fatalf("round %d: %d stripe records for %d live stripes, want at most %d", r, total, len(live), bound)
		}
	}
	if len(minted) <= objs {
		t.Fatalf("only %d stripes minted over %d rounds of %d objects: rewrites did not re-encode", len(minted), rounds, objs)
	}

	n, err := cl.Delete(ctx, name, Box{})
	if err != nil {
		t.Fatal(err)
	}
	if n != objs {
		t.Fatalf("deleted %d objects, want %d", n, objs)
	}
	waitEncodeIdle(c)
	for srv, ids := range dirStripeRecords(t, c, cl) {
		if len(ids) != 0 {
			t.Fatalf("server %d holds %d stripe records after deleting every object", srv, len(ids))
		}
	}
}
