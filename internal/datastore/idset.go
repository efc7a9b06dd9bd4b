package datastore

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"
)

// IDSet is an immutable, ascending, duplicate-free set of row IDs — a
// family's or a pr-filter's matching results — held at its density. Its
// words are either a bitmap over [least ID, greatest ID] (bit k is the ID
// base+k) or every ID's offset from the least at 1, 2, 4 or 8 bytes,
// packed low bytes first (the frame-of-reference rule of reldb.IntVec),
// whichever takes fewer words. The words are allocated exactly, so a set
// owns no slack, and its length is stored. The zero IDSet is empty. No
// method modifies a set, so the match cache shares one among all readers.
type IDSet struct {
	base  int64    // the least ID
	n     int      // how many IDs
	width uint8    // bytes per offset: 1, 2, 4 or 8; 0 in the bitmap form
	words []uint64 // the bitmap or the packed offsets
}

// NewIDSet packs ids, which must ascend without duplicates.
func NewIDSet(ids []int64) IDSet {
	if len(ids) == 0 {
		return IDSet{}
	}
	return pack(len(ids), ids[0], ids[len(ids)-1], func(yield func(int64)) {
		for _, id := range ids {
			yield(id)
		}
	})
}

// offsetWidth is the least of 1, 2, 4 and 8 bytes that holds span.
func offsetWidth(span uint64) uint8 {
	switch {
	case span < 1<<8:
		return 1
	case span < 1<<16:
		return 2
	case span < 1<<32:
		return 4
	}
	return 8
}

// bitmapForm reports whether n IDs whose greatest lies span past the
// least take fewer words as a bitmap than as offsets.
func bitmapForm(n int, span uint64) bool {
	return span/64+1 < (uint64(n)*uint64(offsetWidth(span))+7)/8
}

// pack builds the set of the n ascending IDs, lo the least and hi the
// greatest, that each yields, in whichever form takes fewer words.
func pack(n int, lo, hi int64, each func(yield func(int64))) IDSet {
	span := uint64(hi - lo) // exact even where hi-lo overflows int64
	if bitmapForm(n, span) {
		s := IDSet{base: lo, n: n, words: make([]uint64, span/64+1)}
		each(func(id int64) {
			k := uint64(id - lo)
			s.words[k/64] |= 1 << (k % 64)
		})
		return s
	}
	s := IDSet{base: lo, n: n, width: offsetWidth(span)}
	s.words = make([]uint64, (uint64(n)*uint64(s.width)+7)/8)
	bit := uint64(0)
	each(func(id int64) {
		s.words[bit/64] |= uint64(id-lo) << (bit % 64)
		bit += 8 * uint64(s.width)
	})
	return s
}

// collect packs the ascending, duplicate-free IDs seq yields. seq runs
// twice: once to size the set, once to fill it, so nothing is buffered.
func collect(seq func(yield func(int64))) IDSet {
	n, lo, hi := 0, int64(0), int64(0)
	seq(func(id int64) {
		if n == 0 {
			lo = id
		}
		hi = id
		n++
	})
	if n == 0 {
		return IDSet{}
	}
	return pack(n, lo, hi, seq)
}

// packUnordered packs ids, which may come in any order and repeat, and
// may reorder them. A bitmap is filled straight from them and counted;
// only the offsets form needs them sorted and compacted first.
func packUnordered(ids []int64) IDSet {
	if len(ids) == 0 {
		return IDSet{}
	}
	lo, hi := ids[0], ids[0]
	for _, id := range ids {
		lo, hi = min(lo, id), max(hi, id)
	}
	span := uint64(hi - lo)
	if !bitmapForm(len(ids), span) {
		return NewIDSet(sortDedup(ids))
	}
	s := IDSet{base: lo, words: make([]uint64, span/64+1)}
	for _, id := range ids {
		k := uint64(id - lo)
		s.words[k/64] |= 1 << (k % 64)
	}
	for _, w := range s.words {
		s.n += bits.OnesCount64(w)
	}
	if s.n < len(ids) && !bitmapForm(s.n, span) { // repeats hid that offsets take fewer words
		return pack(s.n, lo, hi, s.each)
	}
	return s
}

// Len reports how many IDs the set holds.
func (s IDSet) Len() int { return s.n }

// IDs returns the IDs as a new ascending slice, the caller's to modify.
func (s IDSet) IDs() []int64 {
	out := make([]int64, 0, s.n)
	s.each(func(id int64) { out = append(out, id) })
	return out
}

// bytes is what the set allocates: its words, exactly.
func (s IDSet) bytes() int64 { return 8 * int64(cap(s.words)) }

// at returns ID i of the offsets form.
func (s IDSet) at(i int) int64 {
	bit := uint64(i) * 8 * uint64(s.width)
	mask := ^uint64(0) >> (64 - 8*uint64(s.width))
	return s.base + int64(s.words[bit/64]>>(bit%64)&mask)
}

// has reports whether the bitmap form holds id.
func (s IDSet) has(id int64) bool {
	k := uint64(id - s.base)
	return id >= s.base && k/64 < uint64(len(s.words)) && s.words[k/64]&(1<<(k%64)) != 0
}

// wordAt returns the bitmap's 64 bits from id on; id lies in the set's
// range. Bits past the greatest ID are zero.
func (s IDSet) wordAt(id int64) uint64 {
	k := uint64(id - s.base)
	i, sh := k/64, k%64
	w := s.words[i] >> sh
	if sh != 0 && i+1 < uint64(len(s.words)) {
		w |= s.words[i+1] << (64 - sh)
	}
	return w
}

// last returns the greatest ID of a non-empty set.
func (s IDSet) last() int64 {
	if s.width != 0 {
		return s.at(s.n - 1)
	}
	top := len(s.words) - 1
	return s.base + int64(top*64+63-bits.LeadingZeros64(s.words[top]))
}

// each calls yield with every ID, ascending.
func (s IDSet) each(yield func(int64)) {
	if s.width != 0 {
		for i := range s.n {
			yield(s.at(i))
		}
		return
	}
	for i, w := range s.words {
		for w != 0 {
			yield(s.base + int64(i*64+bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}

// gallopRatio is the size imbalance at which an offsets-by-offsets
// intersection switches from a linear merge to galloping through the
// larger set. Below it, the linear merge's sequential pass wins.
const gallopRatio = 8

// gallop returns the least index i >= from of the offsets form with
// at(i) >= v, or Len. It probes exponentially from from before
// binary-searching the bracketed run, so calls with increasing v and
// from (as the galloping intersection makes) cost O(log gap) each.
func (s IDSet) gallop(from int, v int64) int {
	if from >= s.n || s.at(from) >= v {
		return from
	}
	// Invariant: at(lo) < v. Double the step until at(lo+step) >= v or the end.
	lo, step := from, 1
	for lo+step < s.n && s.at(lo+step) < v {
		lo += step
		step *= 2
	}
	hi := min(lo+step, s.n)
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return s.at(lo+1+i) >= v })
}

// Intersect returns the IDs in both s and t. Two bitmaps are ANDed a word
// at a time, an offsets set is bit-tested against a bitmap, and two
// offsets sets are merged, linearly or by galloping through the larger.
// No bitmap is expanded into IDs.
func (s IDSet) Intersect(t IDSet) IDSet {
	if s.n > t.n {
		s, t = t, s
	}
	if s.n == 0 || s.last() < t.base || t.last() < s.base {
		return IDSet{}
	}
	if s.width == 0 && t.width != 0 {
		s, t = t, s // the offsets set is tested against the bitmap
	}
	switch {
	case s.width == 0: // and so is t
		lo, hi := max(s.base, t.base), min(s.last(), t.last())
		return collect(func(yield func(int64)) {
			for id := lo; id <= hi; id += 64 {
				for w := s.wordAt(id) & t.wordAt(id); w != 0; w &= w - 1 {
					yield(id + int64(bits.TrailingZeros64(w)))
				}
				if hi-id < 64 {
					break // id += 64 would pass hi, or overflow
				}
			}
		})
	case t.width == 0:
		return collect(func(yield func(int64)) {
			s.each(func(id int64) {
				if t.has(id) {
					yield(id)
				}
			})
		})
	}
	return collect(func(yield func(int64)) {
		if t.n >= gallopRatio*s.n {
			j := 0
			for i := 0; i < s.n && j < t.n; i++ {
				v := s.at(i)
				if j = t.gallop(j, v); j < t.n && t.at(j) == v {
					yield(v)
					j++
				}
			}
			return
		}
		for i, j := 0, 0; i < s.n && j < t.n; {
			switch a, b := s.at(i), t.at(j); {
			case a == b:
				yield(a)
				i++
				j++
			case a < b:
				i++
			default:
				j++
			}
		}
	})
}

// Union returns the IDs in s or t.
func (s IDSet) Union(t IDSet) IDSet {
	switch {
	case s.n == 0:
		return t
	case t.n == 0:
		return s
	}
	a, b := s.IDs(), t.IDs()
	return collect(func(yield func(int64)) {
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				yield(a[i])
				i++
			case a[i] > b[j]:
				yield(b[j])
				j++
			default:
				yield(a[i])
				i++
				j++
			}
		}
		for _, id := range a[i:] {
			yield(id)
		}
		for _, id := range b[j:] {
			yield(id)
		}
	})
}

// intersectAll intersects every set, smallest first so the running
// intersection shrinks as early as possible. It returns the empty set on
// an empty input, and the (shared) single set when only one is given.
func intersectAll(sets []IDSet) IDSet {
	if len(sets) == 0 {
		return IDSet{}
	}
	ordered := slices.Clone(sets)
	slices.SortFunc(ordered, func(a, b IDSet) int { return cmp.Compare(a.n, b.n) })
	acc := ordered[0]
	for _, s := range ordered[1:] {
		if acc.n == 0 {
			break
		}
		acc = acc.Intersect(s)
	}
	return acc
}

// sortDedup sorts ids in place and removes duplicates. The input slice is
// consumed.
func sortDedup(ids []int64) []int64 {
	slices.Sort(ids)
	return slices.Compact(ids)
}
