package geometry

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := Box3D(0, 0, 0, 4, 2, 8)
	if !b.Valid() {
		t.Fatal("valid box reported invalid")
	}
	if b.Dims() != 3 {
		t.Fatalf("Dims = %d, want 3", b.Dims())
	}
	if b.Volume() != 64 {
		t.Fatalf("Volume = %d, want 64", b.Volume())
	}
	if b.Size(2) != 8 {
		t.Fatalf("Size(2) = %d, want 8", b.Size(2))
	}
	if b.LongestDim() != 2 {
		t.Fatalf("LongestDim = %d, want 2", b.LongestDim())
	}
}

func TestBoxValidity(t *testing.T) {
	cases := []struct {
		b    Box
		want bool
	}{
		{Box{}, false},
		{Box{Lo: []int64{0}, Hi: []int64{0}}, false},
		{Box{Lo: []int64{0}, Hi: []int64{1}}, true},
		{Box{Lo: []int64{0, 0}, Hi: []int64{1}}, false},
		{Box{Lo: []int64{2}, Hi: []int64{1}}, false},
		{Box{Lo: make([]int64, MaxDims+1), Hi: make([]int64, MaxDims+1)}, false},
	}
	for i, c := range cases {
		if c.b.Valid() != c.want {
			t.Errorf("case %d: Valid() = %v, want %v", i, c.b.Valid(), c.want)
		}
	}
}

func TestIntersection(t *testing.T) {
	a := Box3D(0, 0, 0, 4, 4, 4)
	b := Box3D(2, 2, 2, 6, 6, 6)
	got, ok := a.Intersection(b)
	if !ok || !got.Equal(Box3D(2, 2, 2, 4, 4, 4)) {
		t.Fatalf("Intersection = %v ok=%v", got, ok)
	}
	c := Box3D(4, 0, 0, 8, 4, 4) // touching faces share no cells
	if a.Intersects(c) {
		t.Fatal("touching boxes must not intersect (half-open intervals)")
	}
	if _, ok := a.Intersection(c); ok {
		t.Fatal("Intersection of touching boxes must be empty")
	}
}

func TestContains(t *testing.T) {
	a := Box3D(0, 0, 0, 8, 8, 8)
	if !a.Contains(Box3D(2, 2, 2, 6, 6, 6)) {
		t.Fatal("inner box not contained")
	}
	if a.Contains(Box3D(2, 2, 2, 9, 6, 6)) {
		t.Fatal("overflowing box contained")
	}
	if !a.ContainsPoint([]int64{7, 7, 7}) || a.ContainsPoint([]int64{8, 0, 0}) {
		t.Fatal("ContainsPoint boundary handling wrong")
	}
}

func TestUnion(t *testing.T) {
	a := Box3D(0, 0, 0, 2, 2, 2)
	b := Box3D(4, 4, 4, 6, 6, 6)
	u := a.Union(b)
	if !u.Equal(Box3D(0, 0, 0, 6, 6, 6)) {
		t.Fatalf("Union = %v", u)
	}
}

func TestExpand(t *testing.T) {
	bounds := Box3D(0, 0, 0, 10, 10, 10)
	b := Box3D(1, 1, 1, 3, 3, 3)
	e := b.Expand(2, bounds)
	if !e.Equal(Box3D(0, 0, 0, 5, 5, 5)) {
		t.Fatalf("Expand clamped = %v", e)
	}
	e2 := b.Expand(1, Box{})
	if !e2.Equal(Box3D(0, 0, 0, 4, 4, 4)) {
		t.Fatalf("Expand unclamped = %v", e2)
	}
}

func TestSplitHalf(t *testing.T) {
	b := Box3D(0, 0, 0, 5, 2, 2)
	a, c := b.SplitHalf(0)
	if !a.Equal(Box3D(0, 0, 0, 3, 2, 2)) || !c.Equal(Box3D(3, 0, 0, 5, 2, 2)) {
		t.Fatalf("SplitHalf = %v, %v", a, c)
	}
	if a.Volume()+c.Volume() != b.Volume() {
		t.Fatal("halves do not preserve volume")
	}
}

func TestSplitHalfPanicsOnThin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("splitting extent-1 dimension did not panic")
		}
	}()
	Box3D(0, 0, 0, 1, 2, 2).SplitHalf(0)
}

func TestFitPartitionInvariants(t *testing.T) {
	b := Box3D(0, 0, 0, 256, 256, 256)
	parts, err := FitPartition(b, 64*64*64)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 64 {
		t.Fatalf("expected 64 uniform pieces for 256^3 / 64^3, got %d", len(parts))
	}
	if CoverVolume(parts) != b.Volume() {
		t.Fatal("partition does not cover input volume")
	}
	if !Disjoint(parts) {
		t.Fatal("partition pieces overlap")
	}
	for _, p := range parts {
		if p.Volume() > 64*64*64 {
			t.Fatalf("piece %v exceeds fitting size", p)
		}
		if !b.Contains(p) {
			t.Fatalf("piece %v escapes input box", p)
		}
	}
}

func TestFitPartitionIrregular(t *testing.T) {
	b := NewBox([]int64{0, 0}, []int64{7, 5})
	parts, err := FitPartition(b, 6)
	if err != nil {
		t.Fatal(err)
	}
	if CoverVolume(parts) != 35 || !Disjoint(parts) {
		t.Fatalf("irregular partition broken: vol=%d disjoint=%v", CoverVolume(parts), Disjoint(parts))
	}
	for _, p := range parts {
		if p.Volume() > 6 {
			t.Fatalf("piece %v too large", p)
		}
	}
}

func TestFitPartitionNoSplitNeeded(t *testing.T) {
	b := Box3D(0, 0, 0, 2, 2, 2)
	parts, err := FitPartition(b, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 1 || !parts[0].Equal(b) {
		t.Fatalf("unexpected partition %v", parts)
	}
}

func TestFitPartitionSingleCells(t *testing.T) {
	b := NewBox([]int64{0}, []int64{9})
	parts, err := FitPartition(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 9 {
		t.Fatalf("expected 9 unit pieces, got %d", len(parts))
	}
}

func TestFitPartitionErrors(t *testing.T) {
	if _, err := FitPartition(Box{}, 4); err == nil {
		t.Error("invalid box accepted")
	}
	if _, err := FitPartition(Box3D(0, 0, 0, 2, 2, 2), 0); err == nil {
		t.Error("zero fitting size accepted")
	}
}

func TestFitPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func() bool {
		dims := 1 + rng.Intn(3)
		lo := make([]int64, dims)
		hi := make([]int64, dims)
		for d := 0; d < dims; d++ {
			lo[d] = int64(rng.Intn(10))
			hi[d] = lo[d] + 1 + int64(rng.Intn(20))
		}
		b := Box{Lo: lo, Hi: hi}
		maxCells := int64(1 + rng.Intn(50))
		parts, err := FitPartition(b, maxCells)
		if err != nil {
			return false
		}
		if CoverVolume(parts) != b.Volume() || !Disjoint(parts) {
			return false
		}
		for _, p := range parts {
			if p.Volume() > maxCells && p.Volume() != 1 {
				return false
			}
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestGridDecompose(t *testing.T) {
	domain := Box3D(0, 0, 0, 256, 256, 256)
	blocks, err := GridDecompose(domain, []int64{64, 64, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 64 {
		t.Fatalf("got %d blocks, want 64", len(blocks))
	}
	if CoverVolume(blocks) != domain.Volume() || !Disjoint(blocks) {
		t.Fatal("grid decomposition is not an exact disjoint cover")
	}
}

func TestGridDecomposeClipping(t *testing.T) {
	domain := NewBox([]int64{0, 0}, []int64{10, 7})
	blocks, err := GridDecompose(domain, []int64{4, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 6 { // ceil(10/4)*ceil(7/4) = 3*2
		t.Fatalf("got %d blocks, want 6", len(blocks))
	}
	if CoverVolume(blocks) != 70 || !Disjoint(blocks) {
		t.Fatal("clipped decomposition broken")
	}
}

func TestGridDecomposeErrors(t *testing.T) {
	if _, err := GridDecompose(Box{}, []int64{2}); err == nil {
		t.Error("invalid domain accepted")
	}
	if _, err := GridDecompose(Box3D(0, 0, 0, 4, 4, 4), []int64{2, 2}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := GridDecompose(Box3D(0, 0, 0, 4, 4, 4), []int64{2, 0, 2}); err == nil {
		t.Error("zero block size accepted")
	}
}

func TestKeyStability(t *testing.T) {
	a := Box3D(0, 0, 0, 4, 4, 4)
	b := Box3D(0, 0, 0, 4, 4, 4)
	if a.Key() != b.Key() {
		t.Fatal("equal boxes produced different keys")
	}
	c := Box3D(0, 0, 0, 4, 4, 5)
	if a.Key() == c.Key() {
		t.Fatal("distinct boxes produced equal keys")
	}
}

func BenchmarkFitPartition256(b *testing.B) {
	box := Box3D(0, 0, 0, 256, 256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitPartition(box, 32*32*32); err != nil {
			b.Fatal(err)
		}
	}
}
