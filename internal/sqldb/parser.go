package sqldb

import (
	"fmt"
	"strconv"
	"strings"

	"perftrack/internal/reldb"
)

// parser consumes a token stream produced by lex.
type parser struct {
	toks []token
	pos  int
}

// Parse parses one SELECT statement. A trailing semicolon is permitted.
// The language is read-only: any other statement is a parse error.
func Parse(input string) (*SelectStmt, error) {
	toks, err := lex(input)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	if t := p.peek(); t.kind != tokKeyword || t.text != "SELECT" {
		return nil, p.errorf("only SELECT statements are supported, got %q", t.text)
	}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.peek().kind == tokSymbol && p.peek().text == ";" {
		p.next()
	}
	if p.peek().kind != tokEOF {
		return nil, p.errorf("unexpected trailing input %q", p.peek().text)
	}
	return stmt, nil
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) errorf(format string, args ...any) error {
	return fmt.Errorf("sql: position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.peek().kind == tokKeyword && p.peek().text == kw {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectKeyword(kw string) error {
	if !p.acceptKeyword(kw) {
		return p.errorf("expected %s, got %q", kw, p.peek().text)
	}
	return nil
}

func (p *parser) acceptSymbol(sym string) bool {
	if p.peek().kind == tokSymbol && p.peek().text == sym {
		p.next()
		return true
	}
	return false
}

func (p *parser) expectSymbol(sym string) error {
	if !p.acceptSymbol(sym) {
		return p.errorf("expected %q, got %q", sym, p.peek().text)
	}
	return nil
}

// identOrKeyword accepts an identifier; aggregate keywords are allowed as
// identifiers in column positions (e.g. a column named "count").
func (p *parser) ident() (string, error) {
	t := p.peek()
	if t.kind == tokIdent {
		p.next()
		return t.text, nil
	}
	return "", p.errorf("expected identifier, got %q", t.text)
}

func (p *parser) parseTableRef() (TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return TableRef{}, err
	}
	ref := TableRef{Table: name}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return TableRef{}, err
		}
		ref.Alias = alias
	} else if p.peek().kind == tokIdent {
		ref.Alias = p.next().text
	}
	return ref, nil
}

func (p *parser) parseSelect() (*SelectStmt, error) {
	p.next() // SELECT
	stmt := &SelectStmt{Limit: -1}
	stmt.Distinct = p.acceptKeyword("DISTINCT")
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, item)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	from, err := p.parseTableRef()
	if err != nil {
		return nil, err
	}
	stmt.From = from
	for {
		left := false
		if p.acceptKeyword("LEFT") {
			left = true
		} else if p.acceptKeyword("INNER") {
			// fallthrough to JOIN
		} else if p.peek().kind != tokKeyword || p.peek().text != "JOIN" {
			break
		}
		if err := p.expectKeyword("JOIN"); err != nil {
			return nil, err
		}
		ref, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("ON"); err != nil {
			return nil, err
		}
		on, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Joins = append(stmt.Joins, JoinClause{Left: left, Table: ref, On: on})
	}
	if p.acceptKeyword("WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Where = w
	}
	if p.acceptKeyword("GROUP") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.GroupBy = append(stmt.GroupBy, e)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("HAVING") {
		if len(stmt.GroupBy) == 0 {
			return nil, p.errorf("HAVING requires GROUP BY")
		}
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Having = h
	}
	if p.acceptKeyword("ORDER") {
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := OrderItem{Expr: e}
			if p.acceptKeyword("DESC") {
				item.Desc = true
			} else {
				p.acceptKeyword("ASC")
			}
			stmt.OrderBy = append(stmt.OrderBy, item)
			if p.acceptSymbol(",") {
				continue
			}
			break
		}
	}
	if p.acceptKeyword("LIMIT") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Limit = n
	}
	if p.acceptKeyword("OFFSET") {
		n, err := p.parseIntLiteral()
		if err != nil {
			return nil, err
		}
		stmt.Offset = n
	}
	return stmt, nil
}

func (p *parser) parseIntLiteral() (int, error) {
	t := p.peek()
	if t.kind != tokNumber {
		return 0, p.errorf("expected integer, got %q", t.text)
	}
	p.next()
	n, err := strconv.Atoi(t.text)
	if err != nil {
		return 0, p.errorf("bad integer %q", t.text)
	}
	return n, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	if p.acceptSymbol("*") {
		return SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.peek().kind == tokIdent && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		table := p.next().text
		p.next()
		p.next()
		return SelectItem{Star: true, Table: table}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("AS") {
		alias, err := p.ident()
		if err != nil {
			return SelectItem{}, err
		}
		item.Alias = alias
	} else if p.peek().kind == tokIdent {
		item.Alias = p.next().text
	}
	return item, nil
}

// Expression grammar, loosest to tightest:
//
//	expr    := orExpr
//	orExpr  := andExpr (OR andExpr)*
//	andExpr := notExpr (AND notExpr)*
//	notExpr := NOT notExpr | cmpExpr
//	cmpExpr := addExpr ((=|!=|<>|<|<=|>|>=|LIKE) addExpr
//	           | IS [NOT] NULL | [NOT] IN (list) | [NOT] BETWEEN a AND b)?
//	addExpr := mulExpr ((+|-) mulExpr)*
//	mulExpr := unary ((*|/) unary)*
//	unary   := - unary | primary
//	primary := literal | funcCall | columnRef | ( expr )
func (p *parser) parseExpr() (Expr, error) { return p.parseOr() }

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("OR") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.acceptKeyword("AND") {
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.acceptKeyword("NOT") {
		x, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		switch t.text {
		case "=", "!=", "<>", "<", "<=", ">", ">=":
			op := p.next().text
			if op == "<>" {
				op = "!="
			}
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	if t.kind == tokKeyword {
		switch t.text {
		case "LIKE":
			p.next()
			r, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BinaryExpr{Op: "LIKE", L: l, R: r}, nil
		case "IS":
			p.next()
			not := p.acceptKeyword("NOT")
			if err := p.expectKeyword("NULL"); err != nil {
				return nil, err
			}
			return &IsNullExpr{X: l, Not: not}, nil
		case "IN":
			p.next()
			list, err := p.parseExprList()
			if err != nil {
				return nil, err
			}
			return &InExpr{X: l, List: list}, nil
		case "BETWEEN":
			p.next()
			lo, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			if err := p.expectKeyword("AND"); err != nil {
				return nil, err
			}
			hi, err := p.parseAdd()
			if err != nil {
				return nil, err
			}
			return &BetweenExpr{X: l, Lo: lo, Hi: hi}, nil
		case "NOT":
			// expr NOT IN (...), expr NOT LIKE ..., expr NOT BETWEEN ...
			p.next()
			switch {
			case p.acceptKeyword("IN"):
				list, err := p.parseExprList()
				if err != nil {
					return nil, err
				}
				return &InExpr{X: l, List: list, Not: true}, nil
			case p.acceptKeyword("LIKE"):
				r, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				return &UnaryExpr{Op: "NOT", X: &BinaryExpr{Op: "LIKE", L: l, R: r}}, nil
			case p.acceptKeyword("BETWEEN"):
				lo, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				if err := p.expectKeyword("AND"); err != nil {
					return nil, err
				}
				hi, err := p.parseAdd()
				if err != nil {
					return nil, err
				}
				return &BetweenExpr{X: l, Lo: lo, Hi: hi, Not: true}, nil
			default:
				return nil, p.errorf("expected IN, LIKE, or BETWEEN after NOT")
			}
		}
	}
	return l, nil
}

func (p *parser) parseExprList() ([]Expr, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var list []Expr
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		list = append(list, e)
		if p.acceptSymbol(",") {
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return list, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "+" || t.text == "-") {
			op := p.next().text
			r, err := p.parseMul()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		if t.kind == tokSymbol && (t.text == "*" || t.text == "/") {
			op := p.next().text
			r, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			l = &BinaryExpr{Op: op, L: l, R: r}
			continue
		}
		return l, nil
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.acceptSymbol("-") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if lit, ok := x.(*Literal); ok {
			switch lit.Value.Kind() {
			case reldb.KindInt:
				return &Literal{Value: reldb.Int(-lit.Value.Int64())}, nil
			case reldb.KindFloat:
				return &Literal{Value: reldb.Float(-lit.Value.Float64())}, nil
			}
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.parsePrimary()
}

var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, p.errorf("bad number %q", t.text)
			}
			return &Literal{Value: reldb.Float(f)}, nil
		}
		n, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, p.errorf("bad integer %q", t.text)
		}
		return &Literal{Value: reldb.Int(n)}, nil
	case tokString:
		p.next()
		return &Literal{Value: reldb.Str(t.text)}, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &Literal{Value: reldb.Null()}, nil
		case "TRUE":
			p.next()
			return &Literal{Value: reldb.Bool(true)}, nil
		case "FALSE":
			p.next()
			return &Literal{Value: reldb.Bool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			name := p.next().text
			if err := p.expectSymbol("("); err != nil {
				return nil, err
			}
			fe := &FuncExpr{Name: name}
			if p.acceptSymbol("*") {
				if name != "COUNT" {
					return nil, p.errorf("%s(*) is not valid", name)
				}
				fe.Star = true
			} else {
				fe.Distinct = p.acceptKeyword("DISTINCT")
				arg, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				fe.Arg = arg
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return fe, nil
		default:
			return nil, p.errorf("unexpected keyword %q in expression", t.text)
		}
	case tokIdent:
		p.next()
		if p.acceptSymbol(".") {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ColumnRef{Table: t.text, Column: col}, nil
		}
		return &ColumnRef{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.text)
}
