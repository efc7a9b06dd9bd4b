package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"perftrack/internal/reldb"
)

// TestDifferentialSelectAgainstOracle loads random rows and checks that
// randomized WHERE clauses return exactly the rows a direct in-memory
// evaluation returns — a differential test of lexer, parser, and
// evaluator together. Key and indexed columns are filtered like any
// other: an equality on one, whatever the literal's numeric type, must
// not be answered by a lookup that compares differently.
func TestDifferentialSelectAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	db := testDB{reldb.NewMem()}

	type rec struct {
		id  int64
		num *int64 // nil = NULL
		val *float64
		tag *string
	}
	var rows []rec
	var inserts []reldb.Row
	for i := 0; i < 400; i++ {
		r := rec{id: int64(i)}
		row := reldb.Row{num(r.id), null, null, null}
		if rng.Intn(10) > 0 {
			n := int64(rng.Intn(20))
			r.num = &n
			row[1] = num(n)
		}
		if rng.Intn(10) > 0 {
			v := float64(rng.Intn(1000)) / 10
			r.val = &v
			row[2] = flt(v)
		}
		if rng.Intn(10) > 0 {
			s := fmt.Sprintf("tag%d", rng.Intn(6))
			r.tag = &s
			row[3] = str(s)
		}
		rows = append(rows, r)
		inserts = append(inserts, row)
	}
	mkTable(t, db.eng, "d", []string{"id INTEGER", "num INTEGER", "val REAL", "tag TEXT"},
		[]string{"num", "tag"}, inserts...)

	type pred struct {
		sql    string
		oracle func(rec) bool
	}
	mkPreds := func() []pred {
		n := int64(rng.Intn(20))
		v := float64(rng.Intn(1000)) / 10
		tag := fmt.Sprintf("tag%d", rng.Intn(6))
		id := int64(rng.Intn(420))
		return []pred{
			{fmt.Sprintf("id = %d", id), func(r rec) bool { return r.id == id }},
			{fmt.Sprintf("id = %d.0", id), func(r rec) bool { return r.id == id }},
			{fmt.Sprintf("num = %d.0", n), func(r rec) bool { return r.num != nil && *r.num == n }},
			{fmt.Sprintf("num = %d", n), func(r rec) bool { return r.num != nil && *r.num == n }},
			{fmt.Sprintf("num != %d", n), func(r rec) bool { return r.num != nil && *r.num != n }},
			{fmt.Sprintf("num < %d", n), func(r rec) bool { return r.num != nil && *r.num < n }},
			{fmt.Sprintf("val >= %g", v), func(r rec) bool { return r.val != nil && *r.val >= v }},
			{fmt.Sprintf("tag = '%s'", tag), func(r rec) bool { return r.tag != nil && *r.tag == tag }},
			{"num IS NULL", func(r rec) bool { return r.num == nil }},
			{"tag IS NOT NULL", func(r rec) bool { return r.tag != nil }},
			{fmt.Sprintf("num BETWEEN %d AND %d", n, n+5),
				func(r rec) bool { return r.num != nil && *r.num >= n && *r.num <= n+5 }},
			{fmt.Sprintf("num IN (%d, %d)", n, n+1),
				func(r rec) bool { return r.num != nil && (*r.num == n || *r.num == n+1) }},
			{"tag LIKE 'tag%'", func(r rec) bool { return r.tag != nil }},
			{"tag LIKE '%3'", func(r rec) bool { return r.tag != nil && strings.HasSuffix(*r.tag, "3") }},
		}
	}

	for trial := 0; trial < 200; trial++ {
		preds := mkPreds()
		p1 := preds[rng.Intn(len(preds))]
		p2 := preds[rng.Intn(len(preds))]
		var where string
		var oracle func(rec) bool
		switch rng.Intn(4) {
		case 0:
			where = p1.sql
			oracle = p1.oracle
		case 1:
			where = p1.sql + " AND " + p2.sql
			oracle = func(r rec) bool { return p1.oracle(r) && p2.oracle(r) }
		case 2:
			where = p1.sql + " OR " + p2.sql
			oracle = func(r rec) bool { return p1.oracle(r) || p2.oracle(r) }
		case 3:
			where = "NOT (" + p1.sql + ")"
			// NOT of NULL-involving predicates: the oracles above already
			// return false for NULL (SQL unknown), and NOT(unknown) is
			// still unknown, so rows where the inner predicate involves
			// NULL stay excluded. Model that per predicate column.
			inner := p1
			oracle = func(r rec) bool {
				// Determine whether the inner predicate evaluated to a
				// definite boolean: for IS NULL forms it always does;
				// otherwise NULL operands make it unknown.
				definite := true
				if strings.Contains(inner.sql, "IS") {
					definite = true
				} else if strings.HasPrefix(inner.sql, "num") && r.num == nil {
					definite = false
				} else if strings.HasPrefix(inner.sql, "val") && r.val == nil {
					definite = false
				} else if strings.HasPrefix(inner.sql, "tag") && r.tag == nil {
					definite = false
				}
				return definite && !inner.oracle(r)
			}
		}
		q := "SELECT id FROM d WHERE " + where + " ORDER BY id"
		res, err := db.Query(q)
		if err != nil {
			t.Fatalf("trial %d: %s: %v", trial, q, err)
		}
		var got []int64
		for _, row := range res.Rows {
			got = append(got, row[0].Int64())
		}
		var want []int64
		for _, r := range rows {
			if oracle(r) {
				want = append(want, r.id)
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: %s\ngot %d rows, want %d", trial, q, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: %s\nrow %d: got id %d, want %d", trial, q, i, got[i], want[i])
			}
		}
	}
}

// TestDifferentialAggregates cross-checks GROUP BY aggregates against a
// direct computation.
func TestDifferentialAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	db := testDB{reldb.NewMem()}
	sums := map[int64]float64{}
	counts := map[int64]int64{}
	mins := map[int64]float64{}
	var inserts []reldb.Row
	for i := 0; i < 500; i++ {
		grp := int64(rng.Intn(7))
		v := float64(rng.Intn(10000)) / 100
		inserts = append(inserts, reldb.Row{num(int64(i)), num(grp), flt(v)})
		sums[grp] += v
		counts[grp]++
		if m, ok := mins[grp]; !ok || v < m {
			mins[grp] = v
		}
	}
	mkTable(t, db.eng, "g", []string{"id INTEGER", "grp INTEGER", "v REAL"}, nil, inserts...)
	res := mustQuery(t, db, "SELECT grp, COUNT(*), SUM(v), MIN(v), AVG(v) FROM g GROUP BY grp ORDER BY grp")
	if len(res.Rows) != len(sums) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(sums))
	}
	for _, row := range res.Rows {
		grp := row[0].Int64()
		if row[1].Int64() != counts[grp] {
			t.Errorf("grp %d count = %v, want %d", grp, row[1], counts[grp])
		}
		if diff := row[2].Float64() - sums[grp]; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("grp %d sum = %v, want %v", grp, row[2], sums[grp])
		}
		if row[3].Float64() != mins[grp] {
			t.Errorf("grp %d min = %v, want %v", grp, row[3], mins[grp])
		}
		wantAvg := sums[grp] / float64(counts[grp])
		if diff := row[4].Float64() - wantAvg; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("grp %d avg = %v, want %v", grp, row[4], wantAvg)
		}
	}
}
