package ptdf

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"perftrack/internal/core"
)

func TestParseLineAllForms(t *testing.T) {
	cases := []struct {
		line string
		want Record
	}{
		{"Application irs", ApplicationRec{Name: "irs"}},
		{"ResourceType grid/machine", ResourceTypeRec{Type: "grid/machine"}},
		{"Execution irs-001 irs", ExecutionRec{Name: "irs-001", App: "irs"}},
		{"Resource /irs application", ResourceRec{Name: "/irs", Type: "application"}},
		{"Resource /irs-001 execution irs-001", ResourceRec{Name: "/irs-001", Type: "execution", Exec: "irs-001"}},
		{`ResourceAttribute /MCR/batch/n1/p0 "clock MHz" 2400 string`,
			ResourceAttributeRec{Resource: "/MCR/batch/n1/p0", Attr: "clock MHz", Value: "2400", AttrType: "string"}},
		{"ResourceConstraint /e1/p8 /MCR/batch/n16",
			ResourceConstraintRec{R1: "/e1/p8", R2: "/MCR/batch/n16"}},
		{`PerfResult irs-001 /irs,/MCR(primary) IRS "wall time" 12.5 seconds`,
			PerfResultRec{
				Exec: "irs-001",
				Sets: []ResourceSet{{Names: []core.ResourceName{"/irs", "/MCR"}, Type: core.FocusPrimary}},
				Tool: "IRS", Metric: "wall time", Value: 12.5, Units: "seconds",
			}},
	}
	for _, c := range cases {
		got, err := ParseLine(c.line)
		if err != nil {
			t.Fatalf("ParseLine(%q): %v", c.line, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseLine(%q) = %#v, want %#v", c.line, got, c.want)
		}
	}
}

func TestParseLineSkipsCommentsAndBlank(t *testing.T) {
	for _, line := range []string{"", "   ", "# a comment", "  # indented comment"} {
		got, err := ParseLine(line)
		if err != nil || got != nil {
			t.Errorf("ParseLine(%q) = %v, %v", line, got, err)
		}
	}
}

func TestParseLineErrors(t *testing.T) {
	bad := []string{
		"Bogus x",
		"Application",                            // missing field
		"Application a b",                        // extra field
		"ResourceType /leading/slash",            // bad type path
		"Resource relative application",          // bad name
		"Resource /a",                            // missing type
		"ResourceAttribute /a attr val num",      // bad attr type
		"ResourceAttribute /a attr rel resource", // resource attr value must be a name
		"ResourceConstraint /a rel",              // bad second name
		"PerfResult e1 /a(primary) tool m NaNope units",
		"PerfResult e1 /a(bogus) tool m 1 units", // bad focus type
		"PerfResult e1 /a tool m 1 units",        // missing (type)
		`Application "unterminated`,
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) should fail", line)
		}
	}
}

func TestResourceSetMultiple(t *testing.T) {
	sets, err := ParseResourceSet("/e1/p0(sender):/e1/p1,/e1/p2(receiver)")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 {
		t.Fatalf("sets = %v", sets)
	}
	if sets[0].Type != core.FocusSender || len(sets[0].Names) != 1 {
		t.Errorf("set 0 = %+v", sets[0])
	}
	if sets[1].Type != core.FocusReceiver || len(sets[1].Names) != 2 {
		t.Errorf("set 1 = %+v", sets[1])
	}
}

func TestResourceSetToleratesSpaces(t *testing.T) {
	sets, err := ParseResourceSet("/a , /b (primary) : /c (child)")
	if err != nil {
		t.Fatal(err)
	}
	if len(sets) != 2 || len(sets[0].Names) != 2 || sets[1].Type != core.FocusChild {
		t.Errorf("sets = %+v", sets)
	}
}

func TestResourceSetRoundTrip(t *testing.T) {
	orig := []ResourceSet{
		{Names: []core.ResourceName{"/a", "/b/c"}, Type: core.FocusPrimary},
		{Names: []core.ResourceName{"/x"}, Type: core.FocusParent},
	}
	got, err := ParseResourceSet(FormatResourceSet(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, orig) {
		t.Errorf("round trip = %+v", got)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		ApplicationRec{Name: "smg 2000"}, // space forces quoting
		ResourceTypeRec{Type: "time/interval"},
		ExecutionRec{Name: "e-1", App: "smg 2000"},
		ResourceRec{Name: "/e-1/process 0", Type: "execution/process", Exec: "e-1"},
		ResourceAttributeRec{Resource: "/e-1", Attr: "env \"PATH\"", Value: `/usr/bin:\bin`, AttrType: "string"},
		ResourceConstraintRec{R1: "/e-1/p0", R2: "/m/b/n0"},
		PerfResultRec{
			Exec: "e-1",
			Sets: []ResourceSet{{Names: []core.ResourceName{"/irs"}, Type: core.FocusPrimary}},
			Tool: "mpiP", Metric: "MPI time", Value: 0.125, Units: "seconds",
		},
	}
	for _, rec := range recs {
		line := FormatRecord(rec)
		got, err := ParseLine(line)
		if err != nil {
			t.Fatalf("round trip %q: %v", line, err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Errorf("round trip %q:\ngot  %#v\nwant %#v", line, got, rec)
		}
	}
}

func TestQuoteFieldProperty(t *testing.T) {
	f := func(s string) bool {
		if strings.ContainsAny(s, "\n\r") {
			return true // PTdf is line-oriented; newlines are out of scope
		}
		var p parser
		fields, err := p.split([]byte(quoteField(s)))
		return err == nil && len(fields) == 1 && string(fields[0]) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReaderWriterStream(t *testing.T) {
	doc := `# PTdf generated during a PerfTrack study
Application irs
Execution irs-001 irs

Resource /irs application
Resource /irs-001 execution irs-001
ResourceAttribute /irs-001 nprocs 64 string
PerfResult irs-001 /irs(primary) IRS wallclock 98.1 seconds
`
	recs, err := ReadAll(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 6 {
		t.Fatalf("records = %d", len(recs))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	recs2, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, recs2) {
		t.Error("write/read round trip mismatch")
	}
}

func TestReaderReportsLineNumbers(t *testing.T) {
	doc := "Application a\nBROKEN LINE HERE\n"
	_, err := ReadAll(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("err = %v, want line 2 annotation", err)
	}
}

func TestReaderNextEOF(t *testing.T) {
	r := NewReader(strings.NewReader("# only a comment\n"))
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestWriterCountAndComment(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Comment("header")
	w.Write(ApplicationRec{Name: "a"})
	w.Write(ExecutionRec{Name: "e", App: "a"})
	w.Flush()
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Errorf("%d lines, want a comment and 2 records", n)
	}
	if !strings.HasPrefix(buf.String(), "# header\n") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestPerfHistogramRoundTrip(t *testing.T) {
	rec := PerfHistogramRec{
		Exec: "e1",
		Sets: []ResourceSet{{Names: []core.ResourceName{"/app", "/e1"}, Type: core.FocusPrimary}},
		Tool: "Paradyn", Metric: "cpu_inclusive", BinWidth: 0.2,
		Units:  "units/second",
		Values: []float64{math.NaN(), 1.5, 0, 2.25e3},
	}
	line := FormatRecord(rec)
	got, err := ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine(%q): %v", line, err)
	}
	h := got.(PerfHistogramRec)
	if h.Exec != rec.Exec || h.Metric != rec.Metric || h.BinWidth != 0.2 || h.Units != rec.Units {
		t.Errorf("header = %+v", h)
	}
	if len(h.Values) != 4 || !math.IsNaN(h.Values[0]) || h.Values[3] != 2250 {
		t.Errorf("values = %v", h.Values)
	}
}

func TestPerfHistogramParseErrors(t *testing.T) {
	bad := []string{
		"PerfHistogram e1 /a(primary) t m 0 u 1,2",   // zero bin width
		"PerfHistogram e1 /a(primary) t m 0.2 u",     // missing values
		"PerfHistogram e1 /a(primary) t m 0.2 u x,y", // bad values
		`PerfHistogram e1 /a(primary) t m 0.2 u ""`,  // empty values
	}
	for _, line := range bad {
		if _, err := ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) should fail", line)
		}
	}
}

func TestHistogramValuesRoundTripProperty(t *testing.T) {
	f := func(raw []float64, nanMask []bool) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				v = 0
			}
			vals[i] = v
			if i < len(nanMask) && nanMask[i] {
				vals[i] = math.NaN()
			}
		}
		got, err := ParseHistogramValues(FormatHistogramValues(vals))
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.IsNaN(vals[i]) != math.IsNaN(got[i]) {
				return false
			}
			if !math.IsNaN(vals[i]) && got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLargeValueFormats(t *testing.T) {
	rec := PerfResultRec{
		Exec: "e", Sets: []ResourceSet{{Names: []core.ResourceName{"/a"}, Type: core.FocusPrimary}},
		Tool: "t", Metric: "m", Value: 1.23456789e12, Units: "ops",
	}
	got, err := ParseLine(FormatRecord(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got.(PerfResultRec).Value != rec.Value {
		t.Errorf("value round trip = %v", got.(PerfResultRec).Value)
	}
}

// TestReaderSharesResourceSets: a Reader parses each distinct resource-set
// text once, so results naming the same sets share their Sets, and
// records equal ParseLine's. A set that fails is refused with ParseLine's
// message every time it occurs.
func TestReaderSharesResourceSets(t *testing.T) {
	lines := []string{
		"PerfResult e /a/b,/c(primary):/d(parent) tool m 1 s",
		"PerfResult e /a/b,/c(primary):/d(parent) tool n 2 s",
		"PerfHistogram e /a/b,/c(primary):/d(parent) tool h 0.5 s 1,2,3",
		"PerfResult e /a/b(primary) tool m 3 s",
		"PerfResult e /a/(primary) tool m 4 s",
		"PerfResult e /a/(primary) tool m 5 s",
	}
	r := NewReader(strings.NewReader(strings.Join(lines, "\n")))
	var sets [][]ResourceSet
	for i, line := range lines {
		rec, err := r.Next()
		want, wantErr := ParseLine(line)
		if wantErr != nil {
			if err == nil || err.Error() != fmt.Sprintf("line %d: %v", i+1, wantErr) {
				t.Fatalf("line %d: err = %v, want ParseLine's %v", i+1, err, wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(rec, want) {
			t.Fatalf("line %d: %#v, %v; want ParseLine's %#v", i+1, rec, err, want)
		}
		switch r := rec.(type) {
		case PerfResultRec:
			sets = append(sets, r.Sets)
		case PerfHistogramRec:
			sets = append(sets, r.Sets)
		}
	}
	if &sets[0][0] != &sets[1][0] || &sets[0][0] != &sets[2][0] {
		t.Fatal("records naming the same sets do not share them")
	}
	if &sets[0][0] == &sets[3][0] {
		t.Fatal("records naming different sets share them")
	}
}
