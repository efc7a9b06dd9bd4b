package sqldb

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, q string) *SelectStmt {
	t.Helper()
	s, err := Parse(q)
	if err != nil {
		t.Fatalf("Parse(%q): %v", q, err)
	}
	return s
}

func TestLexBasics(t *testing.T) {
	toks, err := lex("SELECT a, 'it''s', 3.5e2 FROM t -- comment\nWHERE x <= 10;")
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.kind == tokEOF {
			break
		}
		texts = append(texts, tok.text)
	}
	want := []string{"SELECT", "a", ",", "it's", ",", "3.5e2", "FROM", "t", "WHERE", "x", "<=", "10", ";"}
	if strings.Join(texts, "|") != strings.Join(want, "|") {
		t.Errorf("lex = %v, want %v", texts, want)
	}
}

func TestLexErrors(t *testing.T) {
	for _, q := range []string{"'unterminated", `"unterminated`, "a ` b"} {
		if _, err := lex(q); err == nil {
			t.Errorf("lex(%q) should fail", q)
		}
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := lex(`SELECT "order" FROM "select"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].kind != tokIdent || toks[1].text != "order" {
		t.Errorf("quoted ident = %+v", toks[1])
	}
	if toks[3].kind != tokIdent || toks[3].text != "select" {
		t.Errorf("quoted keyword ident = %+v", toks[3])
	}
}

func TestParseSelectFull(t *testing.T) {
	s := mustParse(t, `SELECT t.a, COUNT(*) AS n, SUM(u.v)
		FROM t
		JOIN u ON t.id = u.tid
		LEFT JOIN w ON u.id = w.uid
		WHERE t.a > 5 AND u.name LIKE 'x%'
		GROUP BY t.a
		ORDER BY n DESC, 1 ASC
		LIMIT 10 OFFSET 5`)
	if len(s.Items) != 3 || len(s.Joins) != 2 || !s.Joins[1].Left {
		t.Fatalf("select = %+v", s)
	}
	if s.Limit != 10 || s.Offset != 5 {
		t.Errorf("limit/offset = %d/%d", s.Limit, s.Offset)
	}
	if len(s.GroupBy) != 1 || len(s.OrderBy) != 2 || !s.OrderBy[0].Desc {
		t.Errorf("group/order = %+v", s)
	}
	if s.Items[1].Alias != "n" {
		t.Errorf("alias = %q", s.Items[1].Alias)
	}
}

func TestParseSelectStarForms(t *testing.T) {
	s := mustParse(t, "SELECT *, t.* FROM t")
	if !s.Items[0].Star || s.Items[0].Table != "" {
		t.Errorf("item 0 = %+v", s.Items[0])
	}
	if !s.Items[1].Star || s.Items[1].Table != "t" {
		t.Errorf("item 1 = %+v", s.Items[1])
	}
}

func TestParseExprPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := s.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top is %+v, want OR", s.Where)
	}
	and, ok := or.R.(*BinaryExpr)
	if !ok || and.Op != "AND" {
		t.Errorf("AND should bind tighter than OR")
	}
}

func TestParseArithmeticPrecedence(t *testing.T) {
	s := mustParse(t, "SELECT a + b * c FROM t")
	add := s.Items[0].Expr.(*BinaryExpr)
	if add.Op != "+" {
		t.Fatalf("top = %q", add.Op)
	}
	if mul, ok := add.R.(*BinaryExpr); !ok || mul.Op != "*" {
		t.Error("* should bind tighter than +")
	}
}

func TestParseNotVariants(t *testing.T) {
	for _, q := range []string{
		"SELECT a FROM t WHERE a NOT IN (1,2)",
		"SELECT a FROM t WHERE a NOT LIKE 'x%'",
		"SELECT a FROM t WHERE a NOT BETWEEN 1 AND 2",
		"SELECT a FROM t WHERE NOT a = 1",
		"SELECT a FROM t WHERE a IS NOT NULL",
	} {
		mustParse(t, q)
	}
}

func TestParseNegativeNumbers(t *testing.T) {
	s := mustParse(t, "SELECT -3, -2.5 FROM t")
	if lit := s.Items[0].Expr.(*Literal); lit.Value.Int64() != -3 {
		t.Errorf("got %v", lit.Value)
	}
	if lit := s.Items[1].Expr.(*Literal); lit.Value.Float64() != -2.5 {
		t.Errorf("got %v", lit.Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"FROBNICATE",
		"SELECT",
		"SELECT a",
		"SELECT a FROM",
		"SELECT a FROM t WHERE",
		"INSERT t VALUES (1)",
		"INSERT INTO t VALUES 1",
		"CREATE UNIQUE TABLE t (a INT)",
		"CREATE TABLE t (a FROB)",
		"SELECT a FROM t GROUP",
		"SELECT a FROM t LIMIT x",
		"SELECT SUM(*) FROM t",
		"SELECT a FROM t extra garbage here",
		"DELETE FROM t WHERE a NOT 5",
		// The language is read-only: well-formed DDL and DML are errors too.
		"INSERT INTO t (a, b) VALUES (1, 'x')",
		"UPDATE t SET a = a + 1 WHERE id = 3",
		"DELETE FROM t WHERE a IN (1, 2, 3)",
		"CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)",
		"CREATE UNIQUE INDEX ix ON t (a, b)",
		"DROP TABLE IF EXISTS t",
		"DROP INDEX ix ON t",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q) should fail", q)
		}
	}
}

func TestParseTableAlias(t *testing.T) {
	s := mustParse(t, "SELECT x.a FROM t AS x JOIN u y ON x.id = y.id")
	if s.From.Alias != "x" || s.Joins[0].Table.Alias != "y" {
		t.Errorf("aliases = %q, %q", s.From.Alias, s.Joins[0].Table.Alias)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		pattern, s string
		want       bool
	}{
		{"abc", "abc", true},
		{"abc", "abd", false},
		{"a%", "abc", true},
		{"%c", "abc", true},
		{"%b%", "abc", true},
		{"a_c", "abc", true},
		{"a_c", "ac", false},
		{"%", "", true},
		{"%%", "anything", true},
		{"_", "", false},
		{"a%b%c", "aXXbYYc", true},
		{"a%b%c", "aXXcYYb", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.pattern, c.s); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.pattern, c.s, got, c.want)
		}
	}
}
