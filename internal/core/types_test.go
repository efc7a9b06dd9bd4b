package core

import "testing"

// baseTypeSystem returns a type system holding the Figure 2 base types.
func baseTypeSystem(t *testing.T) *TypeSystem {
	t.Helper()
	ts := NewTypeSystem()
	for _, tp := range BaseTypes() {
		if err := ts.Add(tp); err != nil {
			t.Fatalf("base type %q: %v", tp, err)
		}
	}
	return ts
}

func TestBaseTypesComplete(t *testing.T) {
	ts := baseTypeSystem(t)
	// Figure 2: five hierarchies.
	for _, leaf := range []TypePath{
		"build/module/function/codeBlock",
		"grid/machine/partition/node/processor",
		"environment/module/function/codeBlock",
		"execution/process/thread",
		"time/interval",
	} {
		if !ts.Has(leaf) {
			t.Errorf("base type %q missing", leaf)
		}
	}
	// Eight non-hierarchical types (incl. performanceTool).
	for _, flat := range []TypePath{
		"application", "compiler", "preprocessor", "inputDeck",
		"submission", "operatingSystem", "metric", "performanceTool",
	} {
		if !ts.Has(flat) {
			t.Errorf("flat type %q missing", flat)
		}
	}
}

func TestTypeSystemAddRequiresParent(t *testing.T) {
	ts := NewTypeSystem()
	if err := ts.Add("a/b"); err == nil {
		t.Error("adding child without parent should fail")
	}
	if err := ts.Add("a"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add("a/b"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add("a/b"); err != nil {
		t.Errorf("re-adding should be a no-op, got %v", err)
	}
}

func TestTypeSystemExtension(t *testing.T) {
	// §3.1: extend Time with a sub-interval level; add a new hierarchy.
	ts := baseTypeSystem(t)
	if err := ts.Add("time/interval/calculationPhase"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add("syncObject"); err != nil {
		t.Fatal(err)
	}
	if err := ts.Add("syncObject/communicator"); err != nil {
		t.Fatal(err)
	}
	if !ts.Has("syncObject/communicator") {
		t.Error("extension not registered")
	}
}

func TestTypeSystemRootsAndChildren(t *testing.T) {
	ts := baseTypeSystem(t)
	roots := ts.Roots()
	if len(roots) != 13 { // 5 hierarchies + 8 flat types
		t.Errorf("Roots = %d entries: %v", len(roots), roots)
	}
	kids := ts.Children("grid")
	if len(kids) != 1 || kids[0] != "grid/machine" {
		t.Errorf("Children(grid) = %v", kids)
	}
	if len(ts.Children("application")) != 0 {
		t.Error("flat type should have no children")
	}
}

func TestCheckResource(t *testing.T) {
	ts := baseTypeSystem(t)
	ok := []struct {
		n ResourceName
		p TypePath
	}{
		{"/Linpack", "application"},
		{"/SingleMachineFrost/Frost/batch/frost121/p0", "grid/machine/partition/node/processor"},
		{"/irs/Irs.c/main", "build/module/function"},
	}
	for _, c := range ok {
		if err := ts.CheckResource(c.n, c.p); err != nil {
			t.Errorf("CheckResource(%q, %q): %v", c.n, c.p, err)
		}
	}
	bad := []struct {
		n ResourceName
		p TypePath
	}{
		{"/Linpack", "grid/machine"}, // depth mismatch
		{"/a/b", "nosuchtype/x"},     // unregistered type
		{"relative", "application"},  // bad name
		{"/Linpack", ""},             // bad type
	}
	for _, c := range bad {
		if err := ts.CheckResource(c.n, c.p); err == nil {
			t.Errorf("CheckResource(%q, %q) should fail", c.n, c.p)
		}
	}
}

func TestTypeSystemValidatesNewTypes(t *testing.T) {
	ts := NewTypeSystem()
	for _, bad := range []TypePath{"", "/x", "x/"} {
		if err := ts.Add(bad); err == nil {
			t.Errorf("Add(%q) should fail", bad)
		}
	}
}
