package ptdf

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
)

// parseLineSeeds is a line of every record form, a comment and a blank.
var parseLineSeeds = []string{
	"Application irs",
	"ResourceType grid/machine",
	"Execution irs-001 irs",
	"Resource /irs application",
	"Resource /irs-001 execution irs-001",
	`ResourceAttribute /a "clock MHz" 2400 string`,
	"ResourceConstraint /e1/p8 /m/b/n16",
	`PerfResult e1 /irs,/MCR(primary) IRS "wall time" 12.5 seconds`,
	`PerfHistogram e1 /a(primary) Paradyn cpu 0.2 u nan,1.5,2.5`,
	"# comment",
	"",
	`Application "quoted \" name"`,
	"PerfResult e1 /a(sender):/b(receiver) t m 1 u",
}

// FuzzParseLine checks that arbitrary input never panics the PTdf parser
// and that every accepted record re-serializes to a line that parses to
// an equivalent record (idempotent round trip).
func FuzzParseLine(f *testing.F) {
	for _, s := range parseLineSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if strings.ContainsAny(line, "\n\r") {
			return // line-oriented format
		}
		rec, err := ParseLine(line)
		if err != nil || rec == nil {
			return
		}
		// Round trip: the formatted record must parse to itself.
		line2 := FormatRecord(rec)
		rec2, err := ParseLine(line2)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", line2, err)
		}
		line3 := FormatRecord(rec2)
		if line2 != line3 {
			t.Fatalf("format not stable: %q vs %q", line2, line3)
		}
	})
}

// FuzzReaderMatchesOracle checks the byte tokenizer against the
// string-based parser it replaced (oracle_test.go). On any two lines a
// and b, ParseLine returns the oracle's record or fails with its error,
// and a Reader given a, b, a returns the oracle's records in order —
// the repeat through the names it interned and the sets it parsed —
// up to the first line the oracle fails, whose number it names.
func FuzzReaderMatchesOracle(f *testing.F) {
	seeds := append(slices.Clone(parseLineSeeds),
		`Application "a b"`,
		`Application "a\"b" `,
		`Application "a\\b"`,
		"Application\tirs",
		"\t Execution\te1 \"my app\"\t",
		`Application "a\`,
		`Application "abc`,
		`Application ""`,
		`"a"b c`,
		"  # indented comment",
		"#PerfResult e1 /a(primary) t m 1 u",
		`PerfResult "e 1" "/a, /b (primary)" "t t" "m\"m" -1.5e3 "u\\u"`,
		"PerfResult e1 /a(primary) t m NaN u",
		"PerfResult e1 /a(primary) t m x u",
		"PerfResult e1 /a(primary) t2 m 2 u",
		`ResourceAttribute /a/b owner /c resource`,
		`ResourceAttribute /a "" "" string`,
		"Resource /a/b machine/node e1 extra",
	)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	same := func(got, want Record) bool {
		return fmt.Sprintf("%#v", got) == fmt.Sprintf("%#v", want)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if strings.ContainsAny(a+b, "\n\r") {
			return // line-oriented format
		}
		for _, line := range []string{a, b} {
			want, wantErr := oracleParseLine(line, ParseResourceSet)
			got, err := ParseLine(line)
			switch {
			case (err == nil) != (wantErr == nil):
				t.Fatalf("ParseLine(%q) = %v, %v; oracle %v, %v", line, got, err, want, wantErr)
			case err != nil && err.Error() != wantErr.Error():
				t.Fatalf("ParseLine(%q) fails with %q, oracle with %q", line, err, wantErr)
			case !same(got, want):
				t.Fatalf("ParseLine(%q) = %#v, oracle %#v", line, got, want)
			}
		}

		r := NewReader(strings.NewReader(a + "\n" + b + "\n" + a))
		for n, line := range []string{a, b, a} {
			want, wantErr := oracleParseLine(line, ParseResourceSet)
			if wantErr != nil {
				_, err := r.Next()
				if msg := fmt.Sprintf("line %d: %v", n+1, wantErr); err == nil || err.Error() != msg {
					t.Fatalf("Reader on line %d %q fails with %v, want %q", n+1, line, err, msg)
				}
				return
			}
			if want == nil {
				continue
			}
			if got, err := r.Next(); err != nil || !same(got, want) {
				t.Fatalf("Reader on line %d %q = %#v, %v; oracle %#v", n+1, line, got, err, want)
			}
		}
		if rec, err := r.Next(); err != io.EOF {
			t.Fatalf("Reader after the last line: %#v, %v, want io.EOF", rec, err)
		}
	})
}
