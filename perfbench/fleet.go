package main

import (
	"fmt"
	"os"

	"corec"
)

// Fleet shape shared by every workload: the paper's Table I values over
// eight servers, on loopback TCP with two multiplexed connections per peer.
const (
	fleetServers = 8
	muxConns     = 2
	spillMemMB   = 1 // s3d-spill's L1 budget per server
)

// fleet is one running staging service plus the directory its disk tier
// uses (empty without spilling).
type fleet struct {
	c   *corec.Cluster
	dir string
}

func fleetConfig(spillDir string) corec.Config {
	cfg := corec.DefaultConfig(fleetServers)
	cfg.Transport = "tcp"
	cfg.MuxConnsPerPeer = muxConns
	if spillDir != "" {
		cfg.Storage = &corec.StorageConfig{MemBytes: spillMemMB << 20, Dir: spillDir}
	}
	return cfg
}

// startFleet starts a fresh fleet. With spill set it gets a new L2
// directory under workdir, removed again by close.
func startFleet(workdir string, spill bool) (*fleet, error) {
	f := &fleet{}
	if spill {
		dir, err := os.MkdirTemp(workdir, "spill-")
		if err != nil {
			return nil, fmt.Errorf("spill dir: %w", err)
		}
		f.dir = dir
	}
	c, err := corec.NewCluster(fleetConfig(f.dir))
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start fleet: %w", err)
	}
	f.c = c
	return f, nil
}

func (f *fleet) close() {
	if f.c != nil {
		f.c.Close()
	}
	if f.dir != "" {
		_ = os.RemoveAll(f.dir) // best effort: the checkout's build dir is scratch
	}
}

// fleetGauges are point-in-time totals over every live server.
type fleetGauges struct {
	storedBytes int64 // object + replica + shard bytes
	encoded     int
	dirEntries  int
}

func (f *fleet) gauges() fleetGauges {
	var g fleetGauges
	for i := 0; i < f.c.NumServers(); i++ {
		s := f.c.Server(corec.ServerID(i))
		if s == nil {
			continue
		}
		st := s.CollectStats()
		g.storedBytes += st.ObjectBytes + st.ReplicaBytes + st.ShardBytes
		g.encoded += st.Encoded
		g.dirEntries += st.DirEntries
	}
	return g
}
