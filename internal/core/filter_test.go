package core

import (
	"slices"
	"testing"
	"testing/quick"
)

// testUniverse builds a small Frost-like resource universe.
func testUniverse() []*Resource {
	mk := func(name ResourceName, typ TypePath, attrs map[string]string) *Resource {
		r := NewResource(name, typ)
		for k, v := range attrs {
			r.SetAttribute(k, v)
		}
		return r
	}
	return []*Resource{
		mk("/SingleMachineFrost", "grid", nil),
		mk("/SingleMachineFrost/Frost", "grid/machine", map[string]string{"vendor": "IBM"}),
		mk("/SingleMachineFrost/Frost/batch", "grid/machine/partition", nil),
		mk("/SingleMachineFrost/Frost/batch/node1", "grid/machine/partition/node", nil),
		mk("/SingleMachineFrost/Frost/batch/node1/p0", "grid/machine/partition/node/processor",
			map[string]string{"clock MHz": "375", "processor type": "Power3"}),
		mk("/SingleMachineFrost/Frost/batch/node1/p1", "grid/machine/partition/node/processor",
			map[string]string{"clock MHz": "375"}),
		mk("/SingleMachineMCR", "grid", nil),
		mk("/SingleMachineMCR/MCR", "grid/machine", map[string]string{"vendor": "LNXI"}),
		mk("/SingleMachineMCR/MCR/batch", "grid/machine/partition", nil),
		mk("/SingleMachineMCR/MCR/batch/n5/p0", "grid/machine/partition/node/processor",
			map[string]string{"clock MHz": "2400"}),
		mk("/SingleMachineMCR/MCR/batch/n5", "grid/machine/partition/node", nil),
		mk("/irs", "application", nil),
	}
}

func TestFilterByType(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Type: "grid/machine"}
	fam := f.Apply(u)
	if fam.Size() != 2 {
		t.Errorf("machines = %v", fam.Members())
	}
	if !fam.Contains("/SingleMachineFrost/Frost") || !fam.Contains("/SingleMachineMCR/MCR") {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestFilterByFullName(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Name: "/SingleMachineFrost/Frost/batch"}
	fam := f.Apply(u)
	if fam.Size() != 1 || !fam.Contains("/SingleMachineFrost/Frost/batch") {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestFilterByBaseName(t *testing.T) {
	// The paper's shorthand: "batch" refers to the batch partition of any
	// machine.
	u := testUniverse()
	f := ResourceFilter{BaseName: "batch"}
	fam := f.Apply(u)
	if fam.Size() != 2 {
		t.Errorf("batch partitions = %v", fam.Members())
	}
}

func TestFilterByAttributes(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Attrs: []AttrPredicate{{Attr: "clock MHz", Cmp: CmpGt, Value: "1000"}}}
	fam := f.Apply(u)
	if fam.Size() != 1 || !fam.Contains("/SingleMachineMCR/MCR/batch/n5/p0") {
		t.Errorf("fast processors = %v", fam.Members())
	}
	// Numeric comparison, not lexical: "375" < "1000" numerically.
	f = ResourceFilter{Attrs: []AttrPredicate{{Attr: "clock MHz", Cmp: CmpLt, Value: "1000"}}}
	if fam := f.Apply(u); fam.Size() != 2 {
		t.Errorf("slow processors = %v", fam.Members())
	}
}

func TestFilterAttributesConjunction(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Attrs: []AttrPredicate{
		{Attr: "clock MHz", Cmp: CmpEq, Value: "375"},
		{Attr: "processor type", Cmp: CmpEq, Value: "Power3"},
	}}
	fam := f.Apply(u)
	if fam.Size() != 1 || !fam.Contains("/SingleMachineFrost/Frost/batch/node1/p0") {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestFilterTypeAndAttributes(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Type: "grid/machine", Attrs: []AttrPredicate{{Attr: "vendor", Cmp: CmpEq, Value: "IBM"}}}
	fam := f.Apply(u)
	if fam.Size() != 1 || !fam.Contains("/SingleMachineFrost/Frost") {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestFilterDescendants(t *testing.T) {
	// §2.2's example: name + descendant flag yields all processors of the
	// node.
	u := testUniverse()
	f := ResourceFilter{Name: "/SingleMachineFrost/Frost/batch/node1", Include: IncludeDescendants}
	fam := f.Apply(u)
	if fam.Size() != 3 {
		t.Errorf("members = %v", fam.Members())
	}
	for _, want := range []ResourceName{
		"/SingleMachineFrost/Frost/batch/node1",
		"/SingleMachineFrost/Frost/batch/node1/p0",
		"/SingleMachineFrost/Frost/batch/node1/p1",
	} {
		if !fam.Contains(want) {
			t.Errorf("missing %q", want)
		}
	}
}

func TestFilterAncestors(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Name: "/SingleMachineFrost/Frost/batch/node1/p0", Include: IncludeAncestors}
	fam := f.Apply(u)
	if fam.Size() != 5 {
		t.Errorf("members = %v", fam.Members())
	}
	if !fam.Contains("/SingleMachineFrost") {
		t.Error("root ancestor missing")
	}
}

func TestFilterBoth(t *testing.T) {
	u := testUniverse()
	f := ResourceFilter{Name: "/SingleMachineFrost/Frost/batch/node1", Include: IncludeBoth}
	fam := f.Apply(u)
	if fam.Size() != 6 {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestFilterDefaultChoosesDRelativesExplicitly(t *testing.T) {
	// GUI default D: choosing "Frost" includes its partitions, nodes, and
	// processors.
	u := testUniverse()
	f := ResourceFilter{Name: "/SingleMachineFrost/Frost", Include: IncludeDescendants}
	fam := f.Apply(u)
	if fam.Size() != 5 {
		t.Errorf("members = %v", fam.Members())
	}
}

func TestPRFilterMatchRule(t *testing.T) {
	// PRF matches C ⇔ ∀ R ∈ PRF ∃ r ∈ C: r ∈ R
	frost := NewFamily("/SingleMachineFrost/Frost", "/SingleMachineFrost/Frost/batch")
	app := NewFamily("/irs")
	prf := PRFilter{Families: []Family{frost, app}}

	if !prf.MatchesResources([]ResourceName{"/irs", "/SingleMachineFrost/Frost"}) {
		t.Error("both families represented: should match")
	}
	if prf.MatchesResources([]ResourceName{"/irs"}) {
		t.Error("frost family unrepresented: should not match")
	}
	if prf.MatchesResources(nil) {
		t.Error("empty context should not match a nonempty filter")
	}
	empty := PRFilter{}
	if !empty.MatchesResources(nil) {
		t.Error("empty filter matches everything")
	}
}

func TestPRFilterFilterResults(t *testing.T) {
	mkpr := func(metric string, res ...ResourceName) *PerformanceResult {
		return &PerformanceResult{
			Execution: "e1", Metric: metric, Value: 1,
			Contexts: []Context{{Type: FocusPrimary, Resources: res}},
		}
	}
	prs := []*PerformanceResult{
		mkpr("time", "/irs", "/SingleMachineFrost/Frost"),
		mkpr("time", "/irs", "/SingleMachineMCR/MCR"),
		mkpr("flops", "/smg", "/SingleMachineFrost/Frost"),
	}
	prf := PRFilter{Families: []Family{
		NewFamily("/irs"),
		NewFamily("/SingleMachineFrost/Frost"),
	}}
	got := prf.Filter(prs)
	if len(got) != 1 || got[0] != prs[0] {
		t.Errorf("filtered = %d results", len(got))
	}
}

func TestPRFilterMultiContextResult(t *testing.T) {
	// A result with sender and receiver contexts matches if any context
	// resource falls in each family.
	pr := &PerformanceResult{
		Execution: "e1", Metric: "transit", Value: 0.5,
		Contexts: []Context{
			{Type: FocusSender, Resources: []ResourceName{"/e1/p0"}},
			{Type: FocusReceiver, Resources: []ResourceName{"/e1/p1"}},
		},
	}
	prf := PRFilter{Families: []Family{NewFamily("/e1/p1")}}
	if !prf.Matches(pr) {
		t.Error("receiver context should satisfy the filter")
	}
}

func TestPRFilterMonotonicityProperty(t *testing.T) {
	// Adding a family to a pr-filter can only shrink the match set, and
	// adding a resource to a family can only grow it.
	mkpr := func(res ...ResourceName) *PerformanceResult {
		return &PerformanceResult{
			Execution: "e", Metric: "m", Value: 1,
			Contexts: []Context{{Type: FocusPrimary, Resources: res}},
		}
	}
	pool := []ResourceName{"/a", "/b", "/c", "/d"}
	var prs []*PerformanceResult
	for i := 0; i < len(pool); i++ {
		for j := i; j < len(pool); j++ {
			prs = append(prs, mkpr(pool[i], pool[j]))
		}
	}
	f := func(m1, m2, extra uint8) bool {
		fam1 := NewFamily()
		fam2 := NewFamily()
		for i, r := range pool {
			if m1&(1<<i) != 0 {
				fam1.Add(r)
			}
			if m2&(1<<i) != 0 {
				fam2.Add(r)
			}
		}
		one := PRFilter{Families: []Family{fam1}}
		two := PRFilter{Families: []Family{fam1, fam2}}
		n1 := len(one.Filter(prs))
		n2 := len(two.Filter(prs))
		if n2 > n1 {
			return false // adding a family grew the match set
		}
		// Growing fam1 never shrinks the single-family match count.
		fam1Grown := NewFamily(fam1.Members()...)
		fam1Grown.Add(pool[int(extra)%len(pool)])
		n3 := len(PRFilter{Families: []Family{fam1Grown}}.Filter(prs))
		return n3 >= n1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAttrPredicateComparators(t *testing.T) {
	cases := []struct {
		p    AttrPredicate
		got  string
		want bool
	}{
		{AttrPredicate{"a", CmpEq, "x"}, "x", true},
		{AttrPredicate{"a", CmpNe, "x"}, "y", true},
		{AttrPredicate{"a", CmpLt, "10"}, "9", true},   // numeric
		{AttrPredicate{"a", CmpLt, "10"}, "11", false}, // numeric, not lexical
		{AttrPredicate{"a", CmpGe, "2.5"}, "2.5", true},
		{AttrPredicate{"a", CmpContains, "gcc"}, "gcc-3.3.3", true},
		{AttrPredicate{"a", CmpContains, "icc"}, "gcc-3.3.3", false},
		{AttrPredicate{"a", CmpLt, "b"}, "a", true}, // lexical fallback
		{AttrPredicate{"a", Comparator("bogus"), "x"}, "x", false},
	}
	for _, c := range cases {
		if got := c.p.Eval(c.got); got != c.want {
			t.Errorf("%v.Eval(%q) = %v, want %v", c.p, c.got, got, c.want)
		}
	}
}

func TestClusionParseAndString(t *testing.T) {
	for _, s := range []string{"N", "D", "A", "B"} {
		c, err := ParseClusion(s)
		if err != nil {
			t.Fatal(err)
		}
		if c.String() != s {
			t.Errorf("round trip %q -> %q", s, c.String())
		}
	}
	if _, err := ParseClusion("Z"); err == nil {
		t.Error("bad clusion accepted")
	}
	if c, _ := ParseClusion("d"); c != IncludeDescendants {
		t.Error("lower-case clusion should parse")
	}
}

func TestFocusTypeParseAndString(t *testing.T) {
	for _, f := range []FocusType{FocusPrimary, FocusParent, FocusChild, FocusSender, FocusReceiver} {
		got, err := ParseFocusType(f.String())
		if err != nil || got != f {
			t.Errorf("round trip %v: got %v, %v", f, got, err)
		}
	}
	if _, err := ParseFocusType("bogus"); err == nil {
		t.Error("bad focus type accepted")
	}
}

func TestPerformanceResultValidate(t *testing.T) {
	good := &PerformanceResult{
		Metric: "time", Contexts: []Context{{Type: FocusPrimary, Resources: []ResourceName{"/a"}}},
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid result rejected: %v", err)
	}
	bad := []*PerformanceResult{
		{Contexts: []Context{{Type: FocusPrimary, Resources: []ResourceName{"/a"}}}}, // no metric
		{Metric: "t"},                          // no context
		{Metric: "t", Contexts: []Context{{}}}, // empty context
		{Metric: "t", Contexts: []Context{{Type: FocusPrimary, Resources: []ResourceName{"rel"}}}}, // bad name
	}
	for i, pr := range bad {
		if err := pr.Validate(); err == nil {
			t.Errorf("bad result %d accepted", i)
		}
	}
}

func TestPerformanceResultAllResources(t *testing.T) {
	pr := &PerformanceResult{
		Metric: "t",
		Contexts: []Context{
			{Type: FocusSender, Resources: []ResourceName{"/b", "/a"}},
			{Type: FocusReceiver, Resources: []ResourceName{"/a", "/c"}},
		},
	}
	all := pr.AllResources()
	if len(all) != 3 || all[0] != "/a" || all[1] != "/b" || all[2] != "/c" {
		t.Errorf("AllResources = %v", all)
	}
	dst := make([]ResourceName, 1, 8)
	dst[0] = "/z"
	if got := pr.AppendAllResources(dst); !slices.Equal(got, []ResourceName{"/z", "/a", "/b", "/c"}) {
		t.Errorf("AppendAllResources after /z = %v", got)
	}
}

func TestFamilySignatureCanonical(t *testing.T) {
	a := NewFamily("/x", "/y", "/z")
	b := NewFamily("/z", "/x")
	b.Add("/y")
	if SignatureOf(a.Members()) != SignatureOf(b.Members()) {
		t.Error("same member set, different signatures")
	}
	c := NewFamily("/x", "/y")
	if SignatureOf(a.Members()) == SignatureOf(c.Members()) {
		t.Error("different member sets, equal signatures")
	}
	if SignatureOf(NewFamily().Members()) == SignatureOf(c.Members()) {
		t.Error("empty family collides with non-empty")
	}
}

// TestPRFilterSignatureOrderAndDuplicates checks that a pr-filter's
// signature, JoinSignatures of its families', ignores family order and
// duplicates, as the match rule's intersection does.
func TestPRFilterSignatureOrderAndDuplicates(t *testing.T) {
	a := SignatureOf(NewFamily("/x", "/y").Members())
	b := SignatureOf(NewFamily("/z").Members())
	fwd := JoinSignatures([]string{a, b})
	if rev := JoinSignatures([]string{b, a}); fwd != rev {
		t.Error("family order changed the signature")
	}
	if dup := JoinSignatures([]string{a, b, a}); fwd != dup {
		t.Error("duplicate family changed the signature")
	}
	only := JoinSignatures([]string{a})
	if fwd == only {
		t.Error("dropping a family kept the signature")
	}
	if JoinSignatures(nil) == only {
		t.Error("empty filter collides")
	}
}
