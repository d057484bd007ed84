package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

func TestQuantileSampleRule(t *testing.T) {
	mk := func(n int) samples {
		s := make(samples, n)
		for i := range s {
			s[i] = time.Duration(n - i) // reversed: quantile must sort
		}
		return s
	}
	if d, ok := mk(1000).quantile(0.99); !ok || d != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990, true", d, ok)
	}
	if _, ok := mk(999).quantile(0.99); ok {
		t.Fatal("p99 of 999 samples reported; it has fewer than 10 beyond it")
	}
	if d, ok := mk(1).quantile(0.5); !ok || d != 1 {
		t.Fatalf("median of one sample = %v, %v", d, ok)
	}
	if d, ok := mk(4).quantile(0.5); !ok || d != 2 {
		t.Fatalf("median of 1..4 = %v, %v; want nearest rank 2", d, ok)
	}
	if _, ok := (samples{}).quantile(0.5); ok {
		t.Fatal("median of no samples reported")
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestVerifierCatchesFlippedByte(t *testing.T) {
	const size = 4096
	v := &verifier{seed: 7}
	data := make([]byte, size)
	fillPayload(data, 7, s3dVar, 5, 3)
	if err := v.check(data, size, s3dVar, 5, 3); err != nil {
		t.Fatalf("clean payload rejected: %v", err)
	}
	for _, pos := range []int{0, 1, 7, 8, size / 2, size - 1} {
		for _, bit := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), data...)
			bad[pos] ^= bit
			if err := v.check(bad, size, s3dVar, 5, 3); err == nil {
				t.Fatalf("flip of bit %#x at byte %d not caught", bit, pos)
			}
		}
	}
	if err := v.check(data[:size-1], size, s3dVar, 5, 3); err == nil {
		t.Fatal("short read not caught")
	}
	if err := v.check(data, size, s3dVar, 5, 4); err == nil {
		t.Fatal("payload of another version accepted")
	}
}

func TestSeedFixesScheduleAndPayloads(t *testing.T) {
	ops := func(seed int64) []churnOp {
		s := newChurnSchedule(seed, 1, churnSlots, churnGetFrac)
		out := make([]churnOp, 500)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b, c := ops(11), ops(11), ops(12)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs for one seed: %v vs %v", i, a[i], b[i])
		}
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seeds 11 and 12 gave the same schedule")
	}

	p := func(seed int64, block int, version int64) []byte {
		buf := make([]byte, 1000)
		fillPayload(buf, seed, churnVar, block, version)
		return buf
	}
	if !bytes.Equal(p(11, 3, 1), p(11, 3, 1)) {
		t.Fatal("payload differs for one identity")
	}
	for _, other := range [][]byte{p(12, 3, 1), p(11, 4, 1), p(11, 3, 2)} {
		if bytes.Equal(p(11, 3, 1), other) {
			t.Fatal("payloads of different identities are equal")
		}
	}

	w1, w2 := &s3d{seed: 11}, &s3d{seed: 11}
	for c := 0; c < clients; c++ {
		for _, reader := range []bool{false, true} {
			x, y := w1.mine(c, 4, 1, reader), w2.mine(c, 4, 1, reader)
			if len(x) != len(y) {
				t.Fatal("block order differs for one seed")
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatal("block order differs for one seed")
				}
			}
		}
	}
}

func TestS3DBlocksTileDomain(t *testing.T) {
	w := &s3d{seed: 1}
	var vol int64
	for b := 0; b < s3dBlocks; b++ {
		box := s3dBox(b)
		vol += box.Volume()
		for o := 0; o < b; o++ {
			if box.Intersects(s3dBox(o)) {
				t.Fatalf("blocks %d and %d overlap", o, b)
			}
		}
	}
	if vol != s3dEdge*s3dEdge*s3dEdge {
		t.Fatalf("blocks cover %d cells, want %d", vol, s3dEdge*s3dEdge*s3dEdge)
	}
	// Writers split the blocks between them, and so do readers.
	for _, reader := range []bool{false, true} {
		var all []int
		for c := 0; c < clients; c++ {
			all = append(all, w.mine(c, 2, 1, reader)...)
		}
		sort.Ints(all)
		if len(all) != s3dBlocks {
			t.Fatalf("reader=%v: %d blocks assigned, want %d", reader, len(all), s3dBlocks)
		}
		for i, b := range all {
			if b != i {
				t.Fatalf("reader=%v: block %d assigned twice or never", reader, i)
			}
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: spanStep, Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: spanPut, Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: spanPut, Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Name: spanGet, Start: 90, End: 120}, // runs past the parent
	}
	self := selfTimes(spans)
	if self[1] != 100-40-10 {
		t.Fatalf("parent self time = %d, want 50", self[1])
	}
	if self[2] != 30 || self[4] != 30 {
		t.Fatalf("leaf self times = %d, %d; want their durations", self[2], self[4])
	}
	st := summarize(spans, self)
	if st[spanPut].n != 2 || st[spanPut].meanDur != 25 {
		t.Fatalf("put summary = %+v", st[spanPut])
	}
}

// BENCHMARK.json and the program must name the same metrics and units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
		Workloads []struct{ Name string }       `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
}
