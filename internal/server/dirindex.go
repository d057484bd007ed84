package server

import (
	"sort"

	"corec/internal/geometry"
	"corec/internal/types"
)

// dirIndex indexes a directory shard by variable and dim-0 lower corner so
// a region query visits only the records that can intersect it. It holds
// keys only; the records stay in Server.dir, and both are guarded by
// Server.mu.
type dirIndex map[string]*varIndex

// varIndex is one variable's part of the shard index.
type varIndex struct {
	// entries is kept sorted by (lo, key).
	entries []dirEntry
	// maxSpan is the largest dim-0 extent ever inserted for the variable.
	// It never shrinks while the variable has entries, so a record that
	// intersects [qlo, qhi) in dim 0 has qlo-maxSpan < lo < qhi.
	maxSpan uint64
}

type dirEntry struct {
	lo  uint64 // ord(Box.Lo[0])
	key string
}

func (e dirEntry) less(o dirEntry) bool {
	if e.lo != o.lo {
		return e.lo < o.lo
	}
	return e.key < o.key
}

// ord maps an int64 coordinate onto uint64, preserving order, so extents
// and window bounds never overflow.
func ord(x int64) uint64 { return uint64(x) ^ (1 << 63) }

// dim0 returns the ordered dim-0 lower corner and extent of a box. A
// dimensionless box sorts first and spans nothing: no valid query box
// intersects it, but a whole-variable query still returns it.
func dim0(b geometry.Box) (uint64, uint64) {
	if len(b.Lo) == 0 || len(b.Hi) == 0 {
		return 0, 0
	}
	l, h := ord(b.Lo[0]), ord(b.Hi[0])
	if h <= l {
		return l, 0
	}
	return l, h - l
}

// search returns the position of the first entry not less than e.
func (v *varIndex) search(e dirEntry) int {
	return sort.Search(len(v.entries), func(i int) bool { return !v.entries[i].less(e) })
}

// add indexes the new directory key of object id.
func (ix dirIndex) add(key string, id types.ObjectID) {
	v := ix[id.Var]
	if v == nil {
		v = &varIndex{}
		ix[id.Var] = v
	}
	l, span := dim0(id.Box)
	v.maxSpan = max(v.maxSpan, span)
	e := dirEntry{lo: l, key: key}
	i := v.search(e)
	v.entries = append(v.entries, dirEntry{})
	copy(v.entries[i+1:], v.entries[i:])
	v.entries[i] = e
}

// remove drops the directory key of object id from the index. A variable
// left with no entries is dropped whole, which also resets its maxSpan.
func (ix dirIndex) remove(key string, id types.ObjectID) {
	v := ix[id.Var]
	if v == nil {
		return
	}
	l, _ := dim0(id.Box)
	e := dirEntry{lo: l, key: key}
	i := v.search(e)
	if i == len(v.entries) || v.entries[i] != e {
		return
	}
	v.entries = append(v.entries[:i], v.entries[i+1:]...)
	if len(v.entries) == 0 {
		delete(ix, id.Var)
	}
}

// window returns the entries of variable name whose dim-0 lower corner
// lies where a record can intersect box; for an invalid box, every entry
// of the variable. The caller still checks the full intersection. The
// slice aliases the index and is valid only while Server.mu is held.
func (ix dirIndex) window(name string, box geometry.Box) []dirEntry {
	v := ix[name]
	if v == nil {
		return nil
	}
	win := v.entries
	if !box.Valid() {
		return win
	}
	qlo, qhi := ord(box.Lo[0]), ord(box.Hi[0])
	i := 0
	if qlo >= v.maxSpan {
		from := qlo - v.maxSpan
		i = sort.Search(len(win), func(i int) bool { return win[i].lo > from })
	}
	j := sort.Search(len(win), func(j int) bool { return win[j].lo >= qhi })
	return win[i:j]
}
