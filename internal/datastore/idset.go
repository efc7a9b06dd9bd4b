package datastore

import "sort"

// idSet is a sorted, deduplicated slice of row IDs. The pr-filter fast
// path represents per-family result sets this way so that combining
// families is a merge over sorted runs instead of hash-map probing.
type idSet []int64

// sortDedup sorts ids in place, removes duplicates, and returns the
// result as an idSet. The input slice is consumed.
func sortDedup(ids []int64) idSet {
	if len(ids) < 2 {
		return ids
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := ids[:1]
	for _, id := range ids[1:] {
		if id != out[len(out)-1] {
			out = append(out, id)
		}
	}
	return out
}

// gallopSearch returns the index of the first element of s that is >= v,
// probing exponentially from the front before binary-searching the
// bracketed run. Starting from the front keeps repeated calls with
// increasing v (as intersect makes) close to O(log gap) each.
func gallopSearch(s idSet, v int64) int {
	if len(s) == 0 || s[0] >= v {
		return 0
	}
	// Invariant: s[lo] < v. Double the step until s[hi] >= v or the end.
	lo, step := 0, 1
	for lo+step < len(s) && s[lo+step] < v {
		lo += step
		step *= 2
	}
	hi := lo + step
	if hi > len(s) {
		hi = len(s)
	}
	// Binary search in (lo, hi].
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return s[lo+1+i] >= v })
}

// gallopRatio is the size imbalance at which intersect switches from a
// linear merge to galloping through the larger set. Below it, the linear
// merge's cache-friendly sequential pass wins.
const gallopRatio = 8

// intersect returns the elements common to a and b as a new idSet. Both
// inputs must be sorted and deduplicated; neither is modified.
func (a idSet) intersect(b idSet) idSet {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return nil
	}
	out := make(idSet, 0, len(a))
	if len(b) >= gallopRatio*len(a) {
		// Gallop: for each element of the small set, exponentially search
		// forward in the remaining tail of the large set.
		rest := b
		for _, v := range a {
			i := gallopSearch(rest, v)
			if i == len(rest) {
				break
			}
			if rest[i] == v {
				out = append(out, v)
				i++
			}
			rest = rest[i:]
		}
		return out
	}
	// Linear merge.
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// intersectAll intersects every set, smallest first so the running
// intersection shrinks as early as possible. It returns nil on an empty
// input, and the (shared) single set when only one is given.
func intersectAll(sets []idSet) idSet {
	switch len(sets) {
	case 0:
		return nil
	case 1:
		return sets[0]
	}
	ordered := make([]idSet, len(sets))
	copy(ordered, sets)
	sort.Slice(ordered, func(i, j int) bool { return len(ordered[i]) < len(ordered[j]) })
	acc := ordered[0]
	for _, s := range ordered[1:] {
		if len(acc) == 0 {
			return nil
		}
		acc = acc.intersect(s)
	}
	return acc
}

// union returns the ascending, duplicate-free merge of a and b as a new
// idSet. Both inputs must be sorted and deduplicated.
func (a idSet) union(b idSet) idSet {
	out := make(idSet, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// IntersectIDs and UnionIDs combine ascending, duplicate-free ID lists —
// what MatchingResultIDs and ExecutionResultIDs return — into a new list
// of the same shape, for callers outside the package that narrow one
// selection by another.
func IntersectIDs(a, b []int64) []int64 { return idSet(a).intersect(b) }

// UnionIDs is the union counterpart of IntersectIDs.
func UnionIDs(a, b []int64) []int64 { return idSet(a).union(b) }
