package sqldb

import "testing"

// FuzzParse checks that arbitrary input never panics the SQL lexer or
// parser, and that only SELECT ever parses: the DDL and DML seeds are
// statements earlier versions of this package executed.
func FuzzParse(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, COUNT(*) FROM t JOIN u ON t.id = u.tid WHERE a > 5 GROUP BY a HAVING COUNT(*) > 1 ORDER BY 2 DESC LIMIT 3 OFFSET 1",
		"INSERT INTO t (a, b) VALUES (1, 'x''y'), (NULL, TRUE)",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v VARCHAR(10) NOT NULL, FOREIGN KEY (v) REFERENCES u (w))",
		"CREATE UNIQUE INDEX i ON t (a, b)",
		"UPDATE t SET a = a + 1 WHERE b BETWEEN 1 AND 2",
		"DELETE FROM t WHERE a NOT IN (1, 2) OR b IS NOT NULL",
		"DROP TABLE IF EXISTS t;",
		"SELECT -1.5e3, \"quoted ident\" FROM t -- comment",
		"SELECT a FROM t WHERE s LIKE '%x_'",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, query string) {
		stmt, err := Parse(query)
		if err != nil {
			return
		}
		if stmt == nil {
			t.Fatal("nil statement without error")
		}
		if toks, _ := lex(query); toks[0].text != "SELECT" {
			t.Fatalf("parsed a statement that does not start with SELECT: %q", query)
		}
	})
}

// FuzzQueryExecution runs fuzzed SELECTs against a small fixed database:
// execution must never panic, only return errors.
func FuzzQueryExecution(f *testing.F) {
	seeds := []string{
		"SELECT * FROM emp",
		"SELECT dept, AVG(salary) FROM emp GROUP BY dept",
		"SELECT e.name FROM emp e JOIN emp b ON e.boss = b.id",
		"SELECT name FROM emp WHERE salary / 0 IS NULL",
		"SELECT COUNT(DISTINCT dept) FROM emp ORDER BY 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	db := newTestDB(f)
	f.Fuzz(func(t *testing.T, query string) {
		res, err := db.Query(query)
		if err != nil {
			return
		}
		if res == nil {
			t.Fatal("nil result without error")
		}
	})
}
