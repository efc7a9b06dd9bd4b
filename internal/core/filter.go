package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Clusion is the ancestor/descendant flag on a resource filter (§2.2),
// shown in the GUI's "Relatives" column as D, A, B, or N. It extends the
// resulting resource family with relatives of each member resource.
type Clusion int

// Clusion values.
const (
	IncludeNeither     Clusion = iota // N
	IncludeDescendants                // D — the GUI default
	IncludeAncestors                  // A
	IncludeBoth                       // B
)

// String returns the GUI letter for the flag.
func (c Clusion) String() string {
	switch c {
	case IncludeNeither:
		return "N"
	case IncludeDescendants:
		return "D"
	case IncludeAncestors:
		return "A"
	case IncludeBoth:
		return "B"
	default:
		return "?"
	}
}

// ParseClusion parses a GUI relatives letter.
func ParseClusion(s string) (Clusion, error) {
	switch strings.ToUpper(s) {
	case "N":
		return IncludeNeither, nil
	case "D":
		return IncludeDescendants, nil
	case "A":
		return IncludeAncestors, nil
	case "B":
		return IncludeBoth, nil
	}
	return 0, fmt.Errorf("core: unknown relatives flag %q", s)
}

// Comparator is a comparison operator in an attribute predicate.
type Comparator string

// Attribute comparators. String attributes compare lexically unless both
// operands parse as numbers, in which case they compare numerically.
const (
	CmpEq       Comparator = "="
	CmpNe       Comparator = "!="
	CmpLt       Comparator = "<"
	CmpLe       Comparator = "<="
	CmpGt       Comparator = ">"
	CmpGe       Comparator = ">="
	CmpContains Comparator = "contains"
)

// AttrPredicate is one attribute-value-comparator tuple in a resource
// filter.
type AttrPredicate struct {
	Attr  string
	Cmp   Comparator
	Value string
}

// Eval applies the predicate to an attribute value.
func (p AttrPredicate) Eval(got string) bool {
	if p.Cmp == CmpContains {
		return strings.Contains(got, p.Value)
	}
	var c int
	if gf, err1 := strconv.ParseFloat(got, 64); err1 == nil {
		if wf, err2 := strconv.ParseFloat(p.Value, 64); err2 == nil {
			switch {
			case gf < wf:
				c = -1
			case gf > wf:
				c = 1
			}
			return cmpResult(p.Cmp, c)
		}
	}
	c = strings.Compare(got, p.Value)
	return cmpResult(p.Cmp, c)
}

func cmpResult(cmp Comparator, c int) bool {
	switch cmp {
	case CmpEq:
		return c == 0
	case CmpNe:
		return c != 0
	case CmpLt:
		return c < 0
	case CmpLe:
		return c <= 0
	case CmpGt:
		return c > 0
	case CmpGe:
		return c >= 0
	default:
		return false
	}
}

// ResourceFilter selects a set of resources (§2.2). Exactly one of the
// three selection modes should be set: a resource type, a resource name
// (full path, or a base name matched against the final component), or a
// list of attribute predicates (all must hold). The Include flag extends
// the result with ancestors and/or descendants of each selected resource.
type ResourceFilter struct {
	Type     TypePath
	Name     ResourceName // full name if it begins with '/', else a base name
	BaseName string       // explicit base-name match, e.g. "batch"
	Attrs    []AttrPredicate
	Include  Clusion
}

// Matches reports whether the filter's selection criteria (before
// relatives expansion) select the resource.
func (rf ResourceFilter) Matches(r *Resource) bool {
	switch {
	case rf.Name != "":
		if r.Name != rf.Name {
			return false
		}
	case rf.BaseName != "":
		if r.Name.BaseName() != rf.BaseName {
			return false
		}
	case rf.Type != "":
		if r.Type != rf.Type {
			return false
		}
	}
	for _, p := range rf.Attrs {
		got, ok := r.Attributes[p.Attr]
		if !ok || !p.Eval(got) {
			return false
		}
	}
	return true
}

// Family is a resource family: a set of resources, all drawn from the
// same type hierarchy, produced by applying a resource filter.
type Family struct {
	members map[ResourceName]bool
}

// NewFamily builds a family from the given resource names.
func NewFamily(names ...ResourceName) Family {
	f := Family{members: make(map[ResourceName]bool, len(names))}
	for _, n := range names {
		f.members[n] = true
	}
	return f
}

// Add inserts a resource into the family.
func (f Family) Add(n ResourceName) { f.members[n] = true }

// Contains reports family membership.
func (f Family) Contains(n ResourceName) bool { return f.members[n] }

// Size returns the number of member resources.
func (f Family) Size() int { return len(f.members) }

// Members returns the member names, sorted.
func (f Family) Members() []ResourceName {
	out := make([]ResourceName, 0, len(f.members))
	for n := range f.members {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// SignatureOf is a canonical identity for a family whose sorted members
// are given: two families have equal signatures iff they contain the same
// resources, regardless of insertion order. Query layers use it as a
// cache key.
func SignatureOf(members []ResourceName) string {
	h := sha256.New()
	for _, n := range members {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Apply evaluates a resource filter over a resource universe, including
// relatives per the filter's Include flag, and returns the family.
func (rf ResourceFilter) Apply(universe []*Resource) Family {
	fam := NewFamily()
	// First pass: direct matches.
	var matched []ResourceName
	for _, r := range universe {
		if rf.Matches(r) {
			fam.Add(r.Name)
			matched = append(matched, r.Name)
		}
	}
	if rf.Include == IncludeNeither || len(matched) == 0 {
		return fam
	}
	wantAnc := rf.Include == IncludeAncestors || rf.Include == IncludeBoth
	wantDesc := rf.Include == IncludeDescendants || rf.Include == IncludeBoth
	if wantAnc {
		for _, m := range matched {
			for _, a := range m.Ancestors() {
				fam.Add(a)
			}
		}
	}
	if wantDesc {
		for _, r := range universe {
			for _, m := range matched {
				if m.IsAncestorOf(r.Name) {
					fam.Add(r.Name)
					break
				}
			}
		}
	}
	return fam
}

// PRFilter is a set of resource families used to find performance results
// of interest (§2.2).
type PRFilter struct {
	Families []Family
}

// JoinSignatures is the signature of a pr-filter whose families'
// signatures are given. It sorts sigs.
func JoinSignatures(sigs []string) string {
	sort.Strings(sigs)
	out := sigs[:0]
	for _, sig := range sigs {
		if len(out) == 0 || sig != out[len(out)-1] {
			out = append(out, sig)
		}
	}
	return strings.Join(out, "+")
}

// MatchesResources implements the paper's match rule against the union of
// a result's context resources:
//
//	PRF matches C ⇔ ∀ R ∈ PRF: ∃ r ∈ C such that r ∈ R.
func (prf PRFilter) MatchesResources(ctx []ResourceName) bool {
	for _, fam := range prf.Families {
		found := false
		for _, r := range ctx {
			if fam.Contains(r) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Matches applies the filter to a performance result, using the union of
// resources across its contexts.
func (prf PRFilter) Matches(pr *PerformanceResult) bool {
	return prf.MatchesResources(pr.AllResources())
}

// Filter returns the subset of performance results matching the filter.
func (prf PRFilter) Filter(prs []*PerformanceResult) []*PerformanceResult {
	var out []*PerformanceResult
	for _, pr := range prs {
		if prf.Matches(pr) {
			out = append(out, pr)
		}
	}
	return out
}
