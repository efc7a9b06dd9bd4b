package core

import (
	"testing"
	"testing/quick"
)

func TestTypePathBasics(t *testing.T) {
	tp := TypePath("grid/machine/partition/node/processor")
	if tp.Depth() != 5 {
		t.Errorf("Depth = %d", tp.Depth())
	}
	if tp.Leaf() != "processor" || tp.Root() != "grid" {
		t.Errorf("Leaf/Root = %q/%q", tp.Leaf(), tp.Root())
	}
	if tp.Parent() != "grid/machine/partition/node" {
		t.Errorf("Parent = %q", tp.Parent())
	}
	if TypePath("grid").Parent() != "" {
		t.Error("top-level parent should be empty")
	}
	if got := TypePath("time").Child("interval"); got != "time/interval" {
		t.Errorf("Child = %q", got)
	}
	if got := TypePath("").Child("app"); got != "app" {
		t.Errorf("Child of empty = %q", got)
	}
}

func TestTypePathAncestry(t *testing.T) {
	if !TypePath("grid").IsAncestorOf("grid/machine") {
		t.Error("grid should be ancestor of grid/machine")
	}
	if TypePath("grid").IsAncestorOf("grid") {
		t.Error("a type is not its own ancestor")
	}
	if TypePath("grid").IsAncestorOf("gridlock/machine") {
		t.Error("prefix confusion: grid vs gridlock")
	}
}

func TestTypePathValidate(t *testing.T) {
	good := []TypePath{"grid", "grid/machine", "a/b/c/d/e"}
	for _, tp := range good {
		if err := tp.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", tp, err)
		}
	}
	bad := []TypePath{"", "/grid", "grid/", "grid//machine"}
	for _, tp := range bad {
		if err := tp.Validate(); err == nil {
			t.Errorf("Validate(%q) should fail", tp)
		}
	}
}

func TestResourceNameBasics(t *testing.T) {
	n := ResourceName("/SingleMachineFrost/Frost/batch/frost121/p0")
	if n.Depth() != 5 {
		t.Errorf("Depth = %d", n.Depth())
	}
	if n.BaseName() != "p0" {
		t.Errorf("BaseName = %q", n.BaseName())
	}
	if n.Parent() != "/SingleMachineFrost/Frost/batch/frost121" {
		t.Errorf("Parent = %q", n.Parent())
	}
	if ResourceName("/Linpack").Parent() != "" {
		t.Error("top-level parent should be empty")
	}
	if got := ResourceName("/a").Child("b"); got != "/a/b" {
		t.Errorf("Child = %q", got)
	}
}

func TestResourceNameAncestors(t *testing.T) {
	n := ResourceName("/a/b/c")
	anc := n.Ancestors()
	if len(anc) != 2 || anc[0] != "/a" || anc[1] != "/a/b" {
		t.Errorf("Ancestors = %v", anc)
	}
	if len(ResourceName("/a").Ancestors()) != 0 {
		t.Error("top-level resource has no ancestors")
	}
}

func TestResourceNameAncestryPrefixSafety(t *testing.T) {
	if ResourceName("/a/b").IsAncestorOf("/a/bc/d") {
		t.Error("/a/b should not be ancestor of /a/bc/d")
	}
	if !ResourceName("/a/b").IsAncestorOf("/a/b/c/d") {
		t.Error("/a/b should be ancestor of /a/b/c/d")
	}
	if ResourceName("/a/b").IsAncestorOf("/a/b") {
		t.Error("a resource is not its own ancestor")
	}
}

func TestResourceNameValidate(t *testing.T) {
	good := []ResourceName{"/a", "/a/b", "/SingleMachineFrost/Frost/batch/frost121/p0"}
	for _, n := range good {
		if err := n.Validate(); err != nil {
			t.Errorf("Validate(%q): %v", n, err)
		}
	}
	bad := []ResourceName{"", "a", "a/b", "/a/", "/a//b", "//a", "/",
		// Reserved by the PTdf resource-set grammar.
		"/a(b", "/a)b", "/a,b", "/a:b"}
	for _, n := range bad {
		if err := n.Validate(); err == nil {
			t.Errorf("Validate(%q) should fail", n)
		}
	}
}

func TestChildParentInverseProperty(t *testing.T) {
	f := func(base string) bool {
		if base == "" || containsSlash(base) {
			return true
		}
		n := ResourceName("/root").Child(base)
		return n.Parent() == "/root" && n.BaseName() == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAncestorsConsistentWithIsAncestorProperty(t *testing.T) {
	n := ResourceName("/g/m/p/n/c")
	for _, a := range n.Ancestors() {
		if !a.IsAncestorOf(n) {
			t.Errorf("%q in Ancestors but IsAncestorOf false", a)
		}
	}
}

func containsSlash(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return true
		}
	}
	return false
}
