package datastore

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/ptdf"
)

// statsDoc builds a PTdf document with a known statistics profile:
// one application, execs executions, and per execution one "nprocs"
// attribute (distinct across executions), one shared "os" attribute
// (one distinct value), and results×2 performance results over two
// metrics.
func statsDoc(execs, results int) string {
	var b strings.Builder
	b.WriteString("Application statapp\nResource /statapp application\n")
	for e := 0; e < execs; e++ {
		fmt.Fprintf(&b, "Execution se-%d statapp\n", e)
		fmt.Fprintf(&b, "Resource /se-%d execution se-%d\n", e, e)
		fmt.Fprintf(&b, "ResourceAttribute /se-%d nprocs %d string\n", e, 1<<e)
		fmt.Fprintf(&b, "ResourceAttribute /se-%d os linux string\n", e)
		for i := 0; i < results; i++ {
			fmt.Fprintf(&b, "PerfResult se-%d /statapp,/se-%d(primary) tool \"wall time\" %d.5 seconds\n", e, e, i)
			fmt.Fprintf(&b, "PerfResult se-%d /statapp,/se-%d(primary) tool \"flops\" %d.0 ops\n", e, e, i)
		}
	}
	return b.String()
}

func TestTableStatisticsCounts(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdf(strings.NewReader(statsDoc(4, 3))); err != nil {
		t.Fatal(err)
	}
	st := s.TableStatistics()
	if st.Generation == 0 {
		t.Error("generation = 0 after a committed load")
	}
	pr := st.TableStat("performance_result")
	if pr.Rows != 24 { // 4 execs × 3 results × 2 metrics
		t.Errorf("performance_result rows = %d, want 24", pr.Rows)
	}
	ex := st.TableStat("execution")
	if ex.Rows != 4 || ex.DistinctKeys != 4 {
		t.Errorf("execution stat = %+v, want 4 rows / 4 distinct", ex)
	}
	me := st.TableStat("metric")
	if me.DistinctKeys != 2 {
		t.Errorf("metric distinct = %d, want 2", me.DistinctKeys)
	}
	if got := st.TableStat("no_such_table"); got != (TableStat{}) {
		t.Errorf("unknown table stat = %+v, want zero", got)
	}

	np, ok := st.AttributeStat("nprocs")
	if !ok || np.Rows != 4 || np.Distinct != 4 {
		t.Errorf("nprocs stat = %+v (%v), want 4 rows / 4 distinct", np, ok)
	}
	osAttr, ok := st.AttributeStat("os")
	if !ok || osAttr.Rows != 4 || osAttr.Distinct != 1 {
		t.Errorf("os stat = %+v (%v), want 4 rows / 1 distinct", osAttr, ok)
	}
	if _, ok := st.AttributeStat("nope"); ok {
		t.Error("unknown attribute reported as known")
	}
}

// TestStatisticsRecomputedOnReopen pins that statistics are derived
// state: a reopened store computes the pre-close snapshot from its rows
// (loadNames), with nothing stored for the purpose.
func TestStatisticsRecomputedOnReopen(t *testing.T) {
	dir := t.TempDir()
	fe, err := openEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadPTdf(strings.NewReader(statsDoc(3, 2))); err != nil {
		t.Fatal(err)
	}
	live := s.TableStatistics()
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := openEngine(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	// Generations are process-local commit counters; everything else
	// must agree.
	reopened := s2.TableStatistics()
	reopened.Generation = live.Generation
	if !reflect.DeepEqual(reopened, live) {
		t.Errorf("reopened stats diverge from pre-close:\n%+v\nvs\n%+v", reopened, live)
	}
}

// TestNoStatisticsTable pins that a fresh store neither creates nor
// prints a table_statistics table, and that a commit writes the
// document's rows and nothing else.
func TestNoStatisticsTable(t *testing.T) {
	s := newStore(t)
	if _, ok := s.Engine().Table("table_statistics"); ok {
		t.Error("fresh store has a table_statistics table")
	}
	if strings.Contains(s.SchemaDDL(), "table_statistics") {
		t.Error("SchemaDDL prints table_statistics")
	}
	if _, err := s.LoadPTdf(strings.NewReader(statsDoc(1, 1))); err != nil {
		t.Fatal(err)
	}
	before := s.Engine().Stats().Rows
	if err := s.LoadRecord(ptdf.ApplicationRec{Name: "one-more-app"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Engine().Stats().Rows; got != before+1 {
		t.Errorf("engine rows after a one-record load = %d, want %d", got, before+1)
	}
}

func TestAttributeStatDistinctIsLowerBoundPastCap(t *testing.T) {
	s := newStore(t)
	var b strings.Builder
	b.WriteString("Application capapp\nResource /capapp application\n")
	for i := 0; i < maxAttrStatValues+10; i++ {
		fmt.Fprintf(&b, "Resource /n%d grid\n", i)
		fmt.Fprintf(&b, "ResourceAttribute /n%d hostname host-%d string\n", i, i)
	}
	if _, err := s.LoadPTdf(strings.NewReader(b.String())); err != nil {
		t.Fatal(err)
	}
	st, ok := s.TableStatistics().AttributeStat("hostname")
	if !ok {
		t.Fatal("hostname attribute unknown")
	}
	if st.Rows != maxAttrStatValues+10 {
		t.Errorf("rows = %d, want %d", st.Rows, maxAttrStatValues+10)
	}
	if st.Distinct < maxAttrStatValues || st.Distinct > st.Rows {
		t.Errorf("distinct = %d, want a lower bound in [%d, %d]", st.Distinct, maxAttrStatValues, st.Rows)
	}
}

func TestExecutionResultIDsSortedAndIndexed(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdf(strings.NewReader(statsDoc(3, 4))); err != nil {
		t.Fatal(err)
	}
	ids, err := s.ExecutionResultIDs("se-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 8 { // 4 results × 2 metrics
		t.Fatalf("ids = %d, want 8", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not strictly ascending: %v", ids)
		}
	}
	// Every ID really belongs to se-1.
	tab, _ := s.Table("performance_result")
	execID, _ := s.LookupDict("execution", "se-1")
	for _, id := range ids {
		row, ok := tab.Get(id)
		if !ok || row[1].Int64() != execID {
			t.Fatalf("id %d not a se-1 result", id)
		}
	}
	if _, err := s.ExecutionResultIDs("nope"); err == nil {
		t.Fatal("unknown execution did not error")
	}
}
