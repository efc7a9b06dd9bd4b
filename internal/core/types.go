package core

import (
	"fmt"
	"maps"
	"sort"
)

// Base resource types from Figure 2 of the paper: five hierarchies plus
// the non-hierarchical types. PerfTrack loads these through the same type
// extension interface that users call to add their own hierarchies.
var baseHierarchies = []TypePath{
	"build", "build/module", "build/module/function", "build/module/function/codeBlock",
	"grid", "grid/machine", "grid/machine/partition", "grid/machine/partition/node",
	"grid/machine/partition/node/processor",
	"environment", "environment/module", "environment/module/function",
	"environment/module/function/codeBlock",
	"execution", "execution/process", "execution/process/thread",
	"time", "time/interval",
}

var baseFlatTypes = []TypePath{
	"application", "compiler", "preprocessor", "inputDeck",
	"submission", "operatingSystem", "metric", "performanceTool",
}

// BaseTypes returns the full set of base resource types, hierarchical
// levels first, then flat types.
func BaseTypes() []TypePath {
	out := make([]TypePath, 0, len(baseHierarchies)+len(baseFlatTypes))
	out = append(out, baseHierarchies...)
	out = append(out, baseFlatTypes...)
	return out
}

// TypeSystem is the extensible registry of resource types (§2.1). Users
// may add new top-level hierarchies or new levels within existing ones;
// every registered type except a root must have its parent registered
// first.
type TypeSystem struct {
	types map[TypePath]bool
}

// NewTypeSystem returns an empty type system.
func NewTypeSystem() *TypeSystem {
	return &TypeSystem{types: make(map[TypePath]bool)}
}

// Add registers a type path. The parent path must already exist unless
// the path is a single level (a new hierarchy root). Adding an existing
// type is a no-op.
func (ts *TypeSystem) Add(t TypePath) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if ts.types[t] {
		return nil
	}
	if p := t.Parent(); p != "" && !ts.types[p] {
		return fmt.Errorf("core: cannot add type %q: parent %q not registered", t, p)
	}
	ts.types[t] = true
	return nil
}

// Clone returns an independent copy of the type system.
func (ts *TypeSystem) Clone() *TypeSystem {
	return &TypeSystem{types: maps.Clone(ts.types)}
}

// Has reports whether the type path is registered.
func (ts *TypeSystem) Has(t TypePath) bool { return ts.types[t] }

// All returns every registered type path, sorted.
func (ts *TypeSystem) All() []TypePath {
	out := make([]TypePath, 0, len(ts.types))
	for t := range ts.types {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Roots returns the registered top-level types, sorted.
func (ts *TypeSystem) Roots() []TypePath {
	var out []TypePath
	for t := range ts.types {
		if t.Parent() == "" {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Children returns the registered direct children of a type, sorted.
func (ts *TypeSystem) Children(t TypePath) []TypePath {
	var out []TypePath
	for c := range ts.types {
		if c.Parent() == t {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CheckResource verifies that a resource name is consistent with its type:
// both must validate, the type must be registered, and the depths must
// agree (each name component corresponds to one type level).
func (ts *TypeSystem) CheckResource(name ResourceName, typ TypePath) error {
	if err := name.Validate(); err != nil {
		return err
	}
	if err := typ.Validate(); err != nil {
		return err
	}
	if !ts.Has(typ) {
		return fmt.Errorf("core: resource %q has unregistered type %q", name, typ)
	}
	if name.Depth() != typ.Depth() {
		return fmt.Errorf("core: resource %q (depth %d) does not match type %q (depth %d)",
			name, name.Depth(), typ, typ.Depth())
	}
	return nil
}
