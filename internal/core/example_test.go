package core_test

import (
	"fmt"

	"perftrack/internal/core"
)

// The paper's §2.2 example: a resource filter on a node name with the
// descendant flag yields all of the node's processors.
func ExampleResourceFilter_Apply() {
	universe := []*core.Resource{
		core.NewResource("/SingleMachineFrost", "grid"),
		core.NewResource("/SingleMachineFrost/Frost", "grid/machine"),
		core.NewResource("/SingleMachineFrost/Frost/batch", "grid/machine/partition"),
		core.NewResource("/SingleMachineFrost/Frost/batch/node1", "grid/machine/partition/node"),
		core.NewResource("/SingleMachineFrost/Frost/batch/node1/p0", "grid/machine/partition/node/processor"),
		core.NewResource("/SingleMachineFrost/Frost/batch/node1/p1", "grid/machine/partition/node/processor"),
	}
	filter := core.ResourceFilter{
		Name:    "/SingleMachineFrost/Frost/batch/node1",
		Include: core.IncludeDescendants,
	}
	family := filter.Apply(universe)
	for _, name := range family.Members() {
		fmt.Println(name)
	}
	// Output:
	// /SingleMachineFrost/Frost/batch/node1
	// /SingleMachineFrost/Frost/batch/node1/p0
	// /SingleMachineFrost/Frost/batch/node1/p1
}

// PRF matches C ⇔ ∀ R ∈ PRF: ∃ r ∈ C such that r ∈ R — the match rule
// from §2.2.
func ExamplePRFilter_Matches() {
	result := &core.PerformanceResult{
		Execution: "irs-001",
		Metric:    "wall time",
		Value:     98.5,
		Contexts: []core.Context{
			{Type: core.FocusPrimary, Resources: []core.ResourceName{"/irs", "/MCRGrid/MCR"}},
		},
	}
	filter := core.PRFilter{Families: []core.Family{
		core.NewFamily("/irs"),         // the application family
		core.NewFamily("/MCRGrid/MCR"), // the machine family
	}}
	fmt.Println(filter.Matches(result))

	filter.Families = append(filter.Families, core.NewFamily("/GhostGrid/Ghost"))
	fmt.Println(filter.Matches(result))
	// Output:
	// true
	// false
}

// Full resource names encode their ancestry.
func ExampleResourceName_Ancestors() {
	name := core.ResourceName("/SingleMachineFrost/Frost/batch/frost121/p0")
	for _, a := range name.Ancestors() {
		fmt.Println(a)
	}
	// Output:
	// /SingleMachineFrost
	// /SingleMachineFrost/Frost
	// /SingleMachineFrost/Frost/batch
	// /SingleMachineFrost/Frost/batch/frost121
}
