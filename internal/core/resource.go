package core

import (
	"fmt"
	"slices"
	"sort"
)

// Resource is any named element of an application or its compile-time or
// runtime environment (§2.1): machine nodes, processes, functions,
// compilers, and so on.
type Resource struct {
	Name ResourceName
	Type TypePath

	// Attributes are string-valued characteristics (vendor, clock MHz, …).
	Attributes map[string]string

	// Constraints are resource-valued attributes — one resource attributed
	// to another, such as the node a process ran on. They are stored in a
	// separate resource_constraint table in the prototype schema.
	Constraints []ResourceName
}

// NewResource builds a resource with no attributes.
func NewResource(name ResourceName, typ TypePath) *Resource {
	return &Resource{Name: name, Type: typ, Attributes: make(map[string]string)}
}

// SetAttribute records a string attribute.
func (r *Resource) SetAttribute(name, value string) {
	if r.Attributes == nil {
		r.Attributes = make(map[string]string)
	}
	r.Attributes[name] = value
}

// AddConstraint records a resource-valued attribute.
func (r *Resource) AddConstraint(other ResourceName) {
	r.Constraints = append(r.Constraints, other)
}

// AttributeNames returns the attribute names, sorted.
func (r *Resource) AttributeNames() []string {
	out := make([]string, 0, len(r.Attributes))
	for k := range r.Attributes {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// String renders the resource for debugging.
func (r *Resource) String() string {
	return fmt.Sprintf("%s (%s)", r.Name, r.Type)
}

// FocusType classifies a performance-result context (the "focus" in the
// internal schema): primary, parent, child, sender, or receiver.
type FocusType int

// Focus types from the schema in Figure 1.
const (
	FocusPrimary FocusType = iota
	FocusParent
	FocusChild
	FocusSender
	FocusReceiver
)

var focusNames = [...]string{"primary", "parent", "child", "sender", "receiver"}

// String returns the schema name of the focus type.
func (f FocusType) String() string {
	if f < 0 || int(f) >= len(focusNames) {
		return fmt.Sprintf("FocusType(%d)", int(f))
	}
	return focusNames[f]
}

// ParseFocusType parses a schema focus-type name.
func ParseFocusType(s string) (FocusType, error) {
	for i, n := range focusNames {
		if n == s {
			return FocusType(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown focus type %q", s)
}

// Context is a set of resources describing everything known about a
// performance measurement (§2.1): the part(s) of the code or environment
// included in the measurement.
type Context struct {
	Type      FocusType
	Resources []ResourceName
}

// PerformanceResult is a measured or calculated value plus descriptive
// metadata (§2.2): a metric and one or more contexts. The prototype
// stores scalar values only, as does this implementation.
type PerformanceResult struct {
	Execution string  // execution (run) this result belongs to
	Metric    string  // measurable characteristic, e.g. "CPU time"
	Value     float64 // scalar value
	Units     string  // e.g. "seconds"
	Tool      string  // performance tool that produced the value

	// Contexts holds one or more resource sets. Multiple contexts describe
	// measurements spanning same-typed resources (e.g. message transit
	// between a sender and a receiver process, or mpiP caller/callee).
	Contexts []Context
}

// AllResources returns the union of resources across all contexts, sorted
// and deduplicated.
func (pr *PerformanceResult) AllResources() []ResourceName {
	return pr.AppendAllResources(nil)
}

// AppendAllResources appends AllResources' union to dst, reusing its
// backing array, and returns the extended slice.
func (pr *PerformanceResult) AppendAllResources(dst []ResourceName) []ResourceName {
	n := len(dst)
	for _, c := range pr.Contexts {
		dst = append(dst, c.Resources...)
	}
	slices.Sort(dst[n:])
	return dst[:n+len(slices.Compact(dst[n:]))]
}

// Validate checks structural invariants: a metric, at least one context,
// and at least one resource per context.
func (pr *PerformanceResult) Validate() error {
	if pr.Metric == "" {
		return fmt.Errorf("core: performance result has no metric")
	}
	if len(pr.Contexts) == 0 {
		return fmt.Errorf("core: performance result has no context")
	}
	for i, c := range pr.Contexts {
		if len(c.Resources) == 0 {
			return fmt.Errorf("core: context %d has no resources", i)
		}
		for _, r := range c.Resources {
			if err := r.Validate(); err != nil {
				return fmt.Errorf("core: context %d: %w", i, err)
			}
		}
	}
	return nil
}
