package query

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/datastore"
	"perftrack/internal/reldb"
)

// studyStore builds a store with IRS runs at two process counts on two
// machines, with per-machine attributes.
func studyStore(t *testing.T) *datastore.Store {
	t.Helper()
	s, err := datastore.Open(reldb.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	mustDo := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.AddResource("/irs", "application", "")
	mustDo(err)
	_, err = s.AddResource("/GF/Frost", "grid/machine", "")
	mustDo(err)
	_, err = s.AddResource("/GM/MCR", "grid/machine", "")
	mustDo(err)
	mustDo(s.SetResourceAttribute("/GF/Frost", "os", "AIX"))
	mustDo(s.SetResourceAttribute("/GM/MCR", "os", "Linux"))

	runs := []struct {
		exec    string
		machine core.ResourceName
		nprocs  string
		wall    float64
	}{
		{"irs-frost-8", "/GF/Frost", "8", 100},
		{"irs-frost-16", "/GF/Frost", "16", 60},
		{"irs-mcr-8", "/GM/MCR", "8", 80},
		{"irs-mcr-16", "/GM/MCR", "16", 45},
	}
	for _, run := range runs {
		_, err := s.AddExecution(run.exec, "irs")
		mustDo(err)
		execRes := core.ResourceName("/" + run.exec)
		_, err = s.AddResource(execRes, "execution", run.exec)
		mustDo(err)
		mustDo(s.SetResourceAttribute(execRes, "nprocs", run.nprocs))
		_, err = s.AddPerfResult(&core.PerformanceResult{
			Execution: run.exec, Metric: "wall time", Value: run.wall,
			Units: "seconds", Tool: "IRS",
			Contexts: []core.Context{core.NewContext("/irs", run.machine, execRes)},
		})
		mustDo(err)
		_, err = s.AddPerfResult(&core.PerformanceResult{
			Execution: run.exec, Metric: "mpi time", Value: run.wall * 0.3,
			Units: "seconds", Tool: "IRS",
			Contexts: []core.Context{core.NewContext("/irs", run.machine, execRes)},
		})
		mustDo(err)
	}
	return s
}

func retrieveAll(t *testing.T, s *datastore.Store) *Table {
	t.Helper()
	tbl, err := RetrieveCtx(context.Background(), s, core.PRFilter{})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestRetrieveBuildsRows(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	if len(tbl.Rows) != 8 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if got := tbl.Columns(); len(got) != 5 {
		t.Errorf("initial columns = %v", got)
	}
}

func TestRetrieveWithFilter(t *testing.T) {
	s := studyStore(t)
	fam, err := s.ApplyFilterCtx(context.Background(), core.ResourceFilter{Name: "/GF/Frost", Include: core.IncludeDescendants})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := RetrieveCtx(context.Background(), s, core.PRFilter{Families: []core.Family{fam}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("frost rows = %d", len(tbl.Rows))
	}
}

func TestFreeResourcesOmitIdenticalTypes(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	free, err := tbl.FreeResources()
	if err != nil {
		t.Fatal(err)
	}
	byType := make(map[core.TypePath]FreeResourceColumn)
	for _, c := range free {
		byType[c.Type] = c
	}
	// application is identical everywhere -> omitted (§3.2's "operating
	// system" example).
	if _, ok := byType["application"]; ok {
		t.Error("identical type 'application' should be omitted")
	}
	// machine differs -> offered, with its attributes listed.
	mc, ok := byType["grid/machine"]
	if !ok {
		t.Fatal("grid/machine should be offered")
	}
	if mc.Distinct != 2 {
		t.Errorf("machine distinct = %d", mc.Distinct)
	}
	if len(mc.Attributes) != 1 || mc.Attributes[0] != "os" {
		t.Errorf("machine attributes = %v", mc.Attributes)
	}
	if _, ok := byType["execution"]; !ok {
		t.Error("execution should be offered")
	}
}

func TestAddColumnBaseAndFullNames(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	if err := tbl.AddColumn("grid/machine", false); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddColumn("grid/machine", false); err != nil {
		t.Fatal(err) // idempotent
	}
	if len(tbl.ExtraColumns) != 1 {
		t.Errorf("extra columns = %v", tbl.ExtraColumns)
	}
	cell := tbl.Cell(tbl.Rows[0], "grid/machine")
	if cell != "Frost" && cell != "MCR" {
		t.Errorf("machine cell = %q", cell)
	}
	tbl2 := retrieveAll(t, s)
	if err := tbl2.AddColumn("grid/machine", true); err != nil {
		t.Fatal(err)
	}
	cell = tbl2.Cell(tbl2.Rows[0], "grid/machine")
	if !strings.HasPrefix(cell, "/G") {
		t.Errorf("full-name cell = %q", cell)
	}
}

func TestAddAttributeColumn(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	if err := tbl.AddAttributeColumn("grid/machine", "os"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddAttributeColumn("execution", "nprocs"); err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, row := range tbl.Rows {
		found[tbl.Cell(row, "grid/machine.os")] = true
	}
	if !found["AIX"] || !found["Linux"] {
		t.Errorf("os cells = %v", found)
	}
	for _, row := range tbl.Rows {
		np := tbl.Cell(row, "execution.nprocs")
		if np != "8" && np != "16" {
			t.Errorf("nprocs cell = %q", np)
		}
	}
}

func TestSortByNumericAndString(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	tbl.SortBy("value", false)
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i-1].Value > tbl.Rows[i].Value {
			t.Fatal("ascending numeric sort broken")
		}
	}
	tbl.SortBy("value", true)
	if tbl.Rows[0].Value != 100 {
		t.Errorf("descending top = %v", tbl.Rows[0].Value)
	}
	tbl.SortBy("execution", false)
	for i := 1; i < len(tbl.Rows); i++ {
		if tbl.Rows[i-1].Execution > tbl.Rows[i].Execution {
			t.Fatal("string sort broken")
		}
	}
}

func TestFilterRowsAndMetric(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	removed := tbl.FilterMetric("wall time")
	if removed != 4 || len(tbl.Rows) != 4 {
		t.Errorf("removed %d, kept %d", removed, len(tbl.Rows))
	}
	removed = tbl.FilterRows(func(r *Row) bool { return r.Value < 90 })
	if removed != 1 || len(tbl.Rows) != 3 {
		t.Errorf("removed %d, kept %d", removed, len(tbl.Rows))
	}
}

func TestGroupByReducers(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	tbl.FilterMetric("wall time")
	if err := tbl.AddAttributeColumn("execution", "nprocs"); err != nil {
		t.Fatal(err)
	}
	keys, mins, err := tbl.GroupBy("execution.nprocs", "min")
	if err != nil {
		t.Fatal(err)
	}
	// Numeric key sort: 8 before 16.
	if len(keys) != 2 || keys[0] != "8" || keys[1] != "16" {
		t.Fatalf("keys = %v", keys)
	}
	if mins[0] != 80 || mins[1] != 45 {
		t.Errorf("mins = %v", mins)
	}
	_, maxs, _ := tbl.GroupBy("execution.nprocs", "max")
	if maxs[0] != 100 || maxs[1] != 60 {
		t.Errorf("maxs = %v", maxs)
	}
	_, avgs, _ := tbl.GroupBy("execution.nprocs", "avg")
	if avgs[0] != 90 || avgs[1] != 52.5 {
		t.Errorf("avgs = %v", avgs)
	}
	_, sums, _ := tbl.GroupBy("execution.nprocs", "sum")
	if sums[0] != 180 {
		t.Errorf("sums = %v", sums)
	}
	_, counts, _ := tbl.GroupBy("execution.nprocs", "count")
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("counts = %v", counts)
	}
	if _, _, err := tbl.GroupBy("execution.nprocs", "median"); err == nil {
		t.Error("unknown reducer accepted")
	}
}

func TestSeriesExtraction(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	tbl.FilterMetric("wall time")
	tbl.SortBy("execution", false)
	labels, values := tbl.Series("execution")
	if len(labels) != 4 || len(values) != 4 {
		t.Fatalf("series = %v %v", labels, values)
	}
	if labels[0] != "irs-frost-16" || values[0] != 60 {
		t.Errorf("first point = %q %v", labels[0], values[0])
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := studyStore(t)
	tbl := retrieveAll(t, s)
	tbl.AddAttributeColumn("execution", "nprocs")
	tbl.SortBy("execution", false)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Rows) != len(tbl.Rows) {
		t.Fatalf("rows = %d, want %d", len(got.Rows), len(tbl.Rows))
	}
	if got.ExtraColumns[0] != "execution.nprocs" {
		t.Errorf("extra columns = %v", got.ExtraColumns)
	}
	for i := range got.Rows {
		if got.Rows[i].Value != tbl.Rows[i].Value ||
			got.Rows[i].Execution != tbl.Rows[i].Execution ||
			got.Rows[i].Extra["execution.nprocs"] != tbl.Rows[i].Extra["execution.nprocs"] {
			t.Fatalf("row %d mismatch", i)
		}
	}
	// A reimported table still sorts, filters, and groups.
	got.FilterMetric("wall time")
	keys, _, err := got.GroupBy("execution.nprocs", "min")
	if err != nil || len(keys) != 2 {
		t.Errorf("reimported grouping: %v, %v", keys, err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	bad := []string{
		"",
		"not,the,right,header\n",
		"execution,metric\n",
		"execution,metric,value,units,tool\ne,m,notanumber,u,t\n",
	}
	for _, doc := range bad {
		if _, err := ReadCSV(strings.NewReader(doc)); err == nil {
			t.Errorf("ReadCSV(%q) should fail", doc)
		}
	}
}
