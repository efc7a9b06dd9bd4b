// Package sqldb is a read-only SQL language: a lexer, a SELECT parser, an
// expression evaluator and one executor (Execute) that runs a parsed
// statement over a row source — WHERE, JOIN ... ON (inner and left;
// equi-joins hash), GROUP BY with aggregates and HAVING, ORDER BY,
// DISTINCT, LIMIT/OFFSET. It holds no storage handle: internal/planner is
// the one caller that runs SQL text, and it decides whether the source is
// the virtual catalog or the engine's physical tables. Any statement other
// than SELECT is a parse error.
package sqldb

import (
	"fmt"
	"strings"
	"unicode"
)

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokIdent
	tokKeyword
	tokNumber
	tokString
	tokSymbol // punctuation and operators
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep original case
	pos  int
}

var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true,
	"INTO": true, "VALUES": true, "CREATE": true, "TABLE": true,
	"INDEX": true, "UNIQUE": true, "ON": true, "DROP": true,
	"UPDATE": true, "SET": true, "DELETE": true, "JOIN": true,
	"INNER": true, "LEFT": true, "ORDER": true, "BY": true, "GROUP": true, "HAVING": true,
	"ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"AND": true, "OR": true, "NOT": true, "NULL": true, "TRUE": true,
	"FALSE": true, "IN": true, "IS": true, "LIKE": true, "AS": true,
	"PRIMARY": true, "KEY": true, "FOREIGN": true, "REFERENCES": true,
	"INTEGER": true, "INT": true, "REAL": true, "FLOAT": true,
	"TEXT": true, "VARCHAR": true, "BOOLEAN": true, "BOOL": true,
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"DISTINCT": true, "BETWEEN": true, "EXISTS": true, "IF": true,
}

type lexError struct {
	pos int
	msg string
}

func (e *lexError) Error() string {
	return fmt.Sprintf("sql: position %d: %s", e.pos, e.msg)
}

// lex splits a SQL statement into tokens.
func lex(input string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(input) {
		c := input[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < len(input) && input[i+1] == '-':
			// Line comment.
			for i < len(input) && input[i] != '\n' {
				i++
			}
		case c == '\'':
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(input) {
				if input[i] == '\'' {
					if i+1 < len(input) && input[i+1] == '\'' {
						sb.WriteByte('\'') // escaped quote
						i += 2
						continue
					}
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated string literal"}
			}
			toks = append(toks, token{kind: tokString, text: sb.String(), pos: start})
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(input) && input[i+1] >= '0' && input[i+1] <= '9'):
			start := i
			seenDot, seenExp := false, false
			for i < len(input) {
				d := input[i]
				if d >= '0' && d <= '9' {
					i++
				} else if d == '.' && !seenDot && !seenExp {
					seenDot = true
					i++
				} else if (d == 'e' || d == 'E') && !seenExp && i > start {
					seenExp = true
					i++
					if i < len(input) && (input[i] == '+' || input[i] == '-') {
						i++
					}
				} else {
					break
				}
			}
			toks = append(toks, token{kind: tokNumber, text: input[start:i], pos: start})
		case isIdentStart(rune(c)):
			start := i
			for i < len(input) && isIdentPart(rune(input[i])) {
				i++
			}
			word := input[start:i]
			upper := strings.ToUpper(word)
			if keywords[upper] {
				toks = append(toks, token{kind: tokKeyword, text: upper, pos: start})
			} else {
				toks = append(toks, token{kind: tokIdent, text: word, pos: start})
			}
		case c == '"':
			// Quoted identifier.
			start := i
			i++
			var sb strings.Builder
			closed := false
			for i < len(input) {
				if input[i] == '"' {
					closed = true
					i++
					break
				}
				sb.WriteByte(input[i])
				i++
			}
			if !closed {
				return nil, &lexError{start, "unterminated quoted identifier"}
			}
			toks = append(toks, token{kind: tokIdent, text: sb.String(), pos: start})
		default:
			start := i
			// Two-character operators first.
			if i+1 < len(input) {
				two := input[i : i+2]
				switch two {
				case "<=", ">=", "<>", "!=":
					toks = append(toks, token{kind: tokSymbol, text: two, pos: start})
					i += 2
					continue
				}
			}
			switch c {
			case '(', ')', ',', '*', '=', '<', '>', '+', '-', '/', '.', ';', '%':
				toks = append(toks, token{kind: tokSymbol, text: string(c), pos: start})
				i++
			default:
				return nil, &lexError{start, fmt.Sprintf("unexpected character %q", c)}
			}
		}
	}
	toks = append(toks, token{kind: tokEOF, pos: len(input)})
	return toks, nil
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
