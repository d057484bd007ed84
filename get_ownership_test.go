package corec

import (
	"bytes"
	"context"
	"testing"

	"corec/internal/ndarray"
	"corec/internal/types"
)

// TestGetReturnsCallersOwnBuffer checks that Get hands back a buffer the
// caller owns: scribbling over it never changes a later Get. It covers a
// replicated object (served from a holder's stored copy) and an encoded one
// (joined from its shards, handed out without a copy when the region is the
// whole object), whole-object and sub-region reads, on both transports.
func TestGetReturnsCallersOwnBuffer(t *testing.T) {
	for _, tr := range []string{"inproc", "tcp"} {
		for _, mode := range []Mode{PolicyReplicate, PolicyErasure} {
			t.Run(tr+"/"+mode.String(), func(t *testing.T) {
				cfg := DefaultConfig(8)
				cfg.Transport = tr
				cfg.Mode = mode
				cfg.Seed = 14
				c, err := NewCluster(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				cl := c.NewClient()
				ctx := context.Background()
				whole := Box3D(0, 0, 0, 8, 8, 8)
				data := regionData(t, whole, cfg.ElemSize, 14)
				if err := cl.Put(ctx, "v", whole, 1, data); err != nil {
					t.Fatal(err)
				}
				metas, err := cl.Query(ctx, "v", whole)
				if err != nil || len(metas) != 1 {
					t.Fatalf("query: %v (%d metas)", err, len(metas))
				}
				wantState := types.StateReplicated
				if mode == PolicyErasure {
					wantState = types.StateEncoded
				}
				if metas[0].State != wantState {
					t.Fatalf("object state %v, want %v", metas[0].State, wantState)
				}
				for _, box := range []Box{whole, Box3D(2, 2, 2, 6, 6, 6)} {
					want := make([]byte, ndarray.BufferSize(box, cfg.ElemSize))
					if _, err := ndarray.CopyRegion(whole, data, box, want, cfg.ElemSize); err != nil {
						t.Fatal(err)
					}
					for round := 0; round < 3; round++ {
						got, err := cl.Get(ctx, "v", box, 1)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("box %v round %d: Get returned bytes changed by an earlier caller", box, round)
						}
						for i := range got {
							got[i] ^= 0xA5
						}
					}
				}
			})
		}
	}
}
