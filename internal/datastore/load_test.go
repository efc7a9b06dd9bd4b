package datastore

import (
	"strings"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/reldb"
)

const sampleDoc = `# PTdf for a small IRS run
Application irs
Execution irs-001 irs
ResourceType grid/machine/partition/node/processor
Resource /MCRGrid/MCR/batch/n1/p0 grid/machine/partition/node/processor
Resource /irs application
Resource /irs-001 execution irs-001
Resource /irs-001/p0 execution/process irs-001
ResourceAttribute /irs-001 nprocs 2 string
ResourceAttribute /irs-001/p0 node /MCRGrid/MCR/batch/n1 resource
ResourceConstraint /irs-001/p0 /MCRGrid/MCR/batch/n1/p0
PerfResult irs-001 /irs,/MCRGrid/MCR(primary) IRS "wall time" 98.5 seconds
PerfResult irs-001 /irs-001/p0(primary) IRS "cpu time" 97.25 seconds
`

func TestLoadPTdfDocument(t *testing.T) {
	s := newStore(t)
	stats, err := s.LoadPTdf(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 12 || stats.Results != 2 || stats.Resources != 4 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Attributes != 2 || stats.Constraints != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// The resource-typed attribute became a constraint.
	p0, err := s.ResourceByName("/irs-001/p0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p0.Constraints) != 2 {
		t.Errorf("constraints = %v", p0.Constraints)
	}
	// Results are queryable.
	fam, _ := s.ApplyFilter(core.ResourceFilter{Name: "/irs"})
	n, err := s.CountMatches(core.PRFilter{Families: []core.Family{fam}})
	if err != nil || n != 1 {
		t.Errorf("matches = %d, %v", n, err)
	}
}

func TestLoadPTdfErrorAnnotatesRecord(t *testing.T) {
	s := newStore(t)
	doc := "Application a\nExecution e1 a\nPerfResult e1 /ghost(primary) t m 1 u\n"
	_, err := s.LoadPTdf(strings.NewReader(doc))
	if err == nil || !strings.Contains(err.Error(), "record 3") {
		t.Errorf("err = %v", err)
	}
}

func TestLoadPTdfRejectsBadSyntax(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdf(strings.NewReader("Garbage line\n")); err == nil {
		t.Error("bad syntax accepted")
	}
}

func TestLoadPTdfTypeExtensionRecord(t *testing.T) {
	s := newStore(t)
	doc := `ResourceType syncObject
ResourceType syncObject/messageTag
Resource /tags/42 syncObject/messageTag
`
	if _, err := s.LoadPTdf(strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	if !s.Types().Has("syncObject/messageTag") {
		t.Error("type extension not applied")
	}
}

func TestLoadPTdfIdempotentEntities(t *testing.T) {
	s := newStore(t)
	doc := "Application a\nApplication a\nExecution e a\nExecution e a\nResource /r application\nResource /r application\n"
	stats, err := s.LoadPTdf(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 6 {
		t.Errorf("records = %d", stats.Records)
	}
	st := s.Stats()
	if st.Applications != 1 || st.Executions != 1 {
		t.Errorf("duplicate entities stored: %+v", st)
	}
}

// TestLoadPTdfRollsBackFailedFile is the regression test for partially
// loaded files: a bad record mid-stream must roll back every record the
// file already loaded, leaving the store exactly as it was.
func TestLoadPTdfRollsBackFailedFile(t *testing.T) {
	s := newStore(t)
	if _, err := s.LoadPTdf(strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()

	// A document that loads several good records, then fails: the perf
	// result references a resource that was never defined.
	bad := `Application scorch
Execution scorch-9 scorch
Resource /scorch application
Resource /scorch-9 execution scorch-9
ResourceAttribute /scorch-9 nprocs 64 string
PerfResult scorch-9 /ghost(primary) tool "wall time" 1.5 seconds
`
	if _, err := s.LoadPTdf(strings.NewReader(bad)); err == nil {
		t.Fatal("bad document loaded without error")
	}

	after := s.Stats()
	if before != after {
		t.Errorf("failed load left data behind:\n before %+v\n after  %+v", before, after)
	}
	if s.HasResource("/scorch-9") || s.HasResource("/scorch") {
		t.Error("rolled-back resources still visible")
	}
	if _, err := s.ExecutionDetail("scorch-9"); err == nil {
		t.Error("rolled-back execution still visible")
	}
	apps, err := s.Applications()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		if app == "scorch" {
			t.Error("rolled-back application still listed")
		}
	}

	// The store remains fully usable: the same document, corrected, loads,
	// and the pre-existing data still answers queries.
	good := strings.Replace(bad, "/ghost(primary)", "/scorch(primary)", 1)
	stats, err := s.LoadPTdf(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 6 || stats.Results != 1 {
		t.Errorf("stats = %+v", stats)
	}
	fam, _ := s.ApplyFilter(core.ResourceFilter{Name: "/irs"})
	if n, err := s.CountMatches(core.PRFilter{Families: []core.Family{fam}}); err != nil || n != 1 {
		t.Errorf("pre-existing data lost after rollback: matches = %d, %v", n, err)
	}
}

// TestLoadPTdfRollbackSurvivesReopen checks that a rollback is durable:
// reopening the store from disk after a failed load shows none of the
// rolled-back rows (no log ever held them).
func TestLoadPTdfRollbackSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fe, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(fe)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadPTdf(strings.NewReader(sampleDoc)); err != nil {
		t.Fatal(err)
	}
	bad := "Application ghostapp\nPerfResult nope /ghost(primary) t m 1 u\n"
	if _, err := s.LoadPTdf(strings.NewReader(bad)); err == nil {
		t.Fatal("bad document loaded without error")
	}
	before := s.Stats()
	if err := fe.Close(); err != nil {
		t.Fatal(err)
	}

	fe2, err := reldb.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fe2.Close()
	s2, err := Open(fe2)
	if err != nil {
		t.Fatal(err)
	}
	if after := s2.Stats(); before != after {
		t.Errorf("reopened store diverges:\n before %+v\n after  %+v", before, after)
	}
	apps2, err := s2.Applications()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps2 {
		if app == "ghostapp" {
			t.Error("rolled-back application resurrected by WAL replay")
		}
	}
}

func TestLoadStatsAdd(t *testing.T) {
	a := LoadStats{Records: 1, Results: 2, Resources: 3}
	a.Add(LoadStats{Records: 10, Results: 20, Resources: 30, Attributes: 5})
	if a.Records != 11 || a.Results != 22 || a.Resources != 33 || a.Attributes != 5 {
		t.Errorf("sum = %+v", a)
	}
}
