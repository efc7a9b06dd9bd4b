// Package core defines the PerfTrack data model from Section 2 of the
// paper: resources with hierarchical, extensible types; attributes and
// resource constraints; metrics; performance results with one or more
// contexts; and pr-filters built from resource families, with the match
// rule
//
//	PRF matches C  ⇔  ∀ R ∈ PRF: ∃ r ∈ C such that r ∈ R.
//
// The model is storage-independent; package datastore maps it onto the
// relational schema of Figure 1.
package core

import (
	"fmt"
	"strings"
)

// TypePath is a hierarchical resource type written like a Unix path
// without a leading slash, e.g. "grid/machine/partition/node/processor".
// Non-hierarchical types are single-level paths, e.g. "application".
type TypePath string

// Segments splits the type path into its levels.
func (t TypePath) Segments() []string {
	if t == "" {
		return nil
	}
	return strings.Split(string(t), "/")
}

// Depth is the number of levels in the type path.
func (t TypePath) Depth() int { return len(t.Segments()) }

// Leaf is the final (most specific) type level.
func (t TypePath) Leaf() string {
	segs := t.Segments()
	if len(segs) == 0 {
		return ""
	}
	return segs[len(segs)-1]
}

// Root is the first (most general) type level, e.g. "grid".
func (t TypePath) Root() string {
	segs := t.Segments()
	if len(segs) == 0 {
		return ""
	}
	return segs[0]
}

// Parent is the type path with the final level removed; it is "" for a
// top-level type.
func (t TypePath) Parent() TypePath {
	i := strings.LastIndexByte(string(t), '/')
	if i < 0 {
		return ""
	}
	return t[:i]
}

// Validate checks that the type path is well formed: nonempty levels, no
// leading or trailing slash.
func (t TypePath) Validate() error {
	if t == "" {
		return fmt.Errorf("core: empty type path")
	}
	if strings.HasPrefix(string(t), "/") || strings.HasSuffix(string(t), "/") {
		return fmt.Errorf("core: type path %q must not begin or end with '/'", t)
	}
	for _, seg := range t.Segments() {
		if seg == "" {
			return fmt.Errorf("core: type path %q has an empty level", t)
		}
	}
	return nil
}

// ResourceName is a full resource name: a Unix-style absolute path naming
// a resource and all its ancestors, e.g.
// "/SingleMachineFrost/Frost/batch/frost121/p0". Full resource names are
// unique within a data store.
type ResourceName string

// Segments splits the name into its levels (without the leading slash).
func (n ResourceName) Segments() []string {
	s := strings.TrimPrefix(string(n), "/")
	if s == "" {
		return nil
	}
	return strings.Split(s, "/")
}

// Depth is the number of levels in the resource name.
func (n ResourceName) Depth() int { return len(n.Segments()) }

// BaseName is the final path component: the paper's shorthand "base name"
// (e.g. "batch" for any machine's batch partition).
func (n ResourceName) BaseName() string {
	s := strings.TrimPrefix(string(n), "/")
	return s[strings.LastIndexByte(s, '/')+1:]
}

// Parent is the name with the final component removed; it is "" for a
// top-level resource.
func (n ResourceName) Parent() ResourceName {
	i := strings.LastIndexByte(string(n), '/')
	if i <= 0 {
		return ""
	}
	return n[:i]
}

// Child extends the resource name by one component.
func (n ResourceName) Child(base string) ResourceName {
	return ResourceName(string(n) + "/" + base)
}

// IsAncestorOf reports whether n is a proper ancestor of other.
func (n ResourceName) IsAncestorOf(other ResourceName) bool {
	return n != other && strings.HasPrefix(string(other), string(n)+"/")
}

// Ancestors lists every proper ancestor of the name, nearest last; a
// top-level resource has none.
func (n ResourceName) Ancestors() []ResourceName {
	var out []ResourceName
	for p := n.Parent(); p != ""; p = p.Parent() {
		out = append(out, p)
	}
	// Reverse for root-first order.
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// Validate checks that the name is a well-formed absolute path. The
// characters '(', ')', ',' and ':' are reserved by PTdf's resource-set
// syntax and may not appear in names.
func (n ResourceName) Validate() error {
	if n == "" {
		return fmt.Errorf("core: empty resource name")
	}
	if !strings.HasPrefix(string(n), "/") {
		return fmt.Errorf("core: resource name %q must begin with '/'", n)
	}
	if strings.HasSuffix(string(n), "/") {
		return fmt.Errorf("core: resource name %q must not end with '/'", n)
	}
	// Between a leading '/' and a last character that is none, a component is
	// empty exactly where two separators meet.
	empty := false
	for i := 1; i < len(n); i++ {
		switch n[i] {
		case '(', ')', ',', ':':
			return fmt.Errorf("core: resource name %q contains a character reserved by PTdf resource-set syntax", n)
		case '/':
			empty = empty || n[i-1] == '/'
		}
	}
	if empty {
		return fmt.Errorf("core: resource name %q has an empty component", n)
	}
	return nil
}
