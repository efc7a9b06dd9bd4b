package ptdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"perftrack/internal/core"
)

// parser turns PTdf lines into records without per-line garbage: it
// tokenizes a line's bytes into one reused field buffer, unescapes quoted
// fields into one reused scratch buffer, and hands a result line back in
// one PerfResultRec it owns. With its maps set it also interns names and
// parses each distinct resource-set text once; without them (ParseLine)
// every record is built afresh.
type parser struct {
	fields  [][]byte
	scratch []byte
	names   map[string]string        // each name string made so far, by its text
	sets    map[string][]ResourceSet // each resource-set text parsed so far, by its text
	res     PerfResultRec
}

// split tokenizes a trimmed PTdf line: whitespace-separated fields, with
// double-quoted fields allowing embedded whitespace and backslash escapes
// for '"' and '\'. The fields alias the line and p.scratch, so they are
// valid until the next call.
func (p *parser) split(line []byte) ([][]byte, error) {
	fields := p.fields[:0]
	if cap(p.scratch) < len(line) {
		p.scratch = make([]byte, 0, len(line)) // an unescaped field is never longer: no regrowth below
	}
	scratch := p.scratch[:0]
	for i := 0; i < len(line); {
		switch c := line[i]; {
		case c == ' ' || c == '\t':
			i++
		case c == '"':
			start, closed := len(scratch), false
			for i++; i < len(line) && !closed; {
				switch line[i] {
				case '\\':
					if i+1 >= len(line) {
						return nil, fmt.Errorf("ptdf: trailing backslash")
					}
					scratch = append(scratch, line[i+1])
					i += 2
				case '"':
					closed = true
					i++
				default:
					scratch = append(scratch, line[i])
					i++
				}
			}
			if !closed {
				return nil, fmt.Errorf("ptdf: unterminated quoted field")
			}
			fields = append(fields, scratch[start:len(scratch):len(scratch)])
		default:
			start := i
			for i < len(line) && line[i] != ' ' && line[i] != '\t' {
				i++
			}
			fields = append(fields, line[start:i])
		}
	}
	p.fields = fields
	return fields, nil
}

// name returns b as a string, the same string for every repeat of it once
// p interns names.
func (p *parser) name(b []byte) string {
	if s, ok := p.names[string(b)]; ok {
		return s
	}
	s := string(b)
	if p.names != nil {
		p.names[s] = s
	}
	return s
}

// resourceSet parses a resource-set text, or returns the sets a parse of
// the same text returned before. A text that fails is parsed, and fails,
// each time.
func (p *parser) resourceSet(text []byte) ([]ResourceSet, error) {
	if sets, ok := p.sets[string(text)]; ok {
		return sets, nil
	}
	s := string(text)
	sets, err := ParseResourceSet(s)
	if err == nil && p.sets != nil {
		p.sets[s] = sets
	}
	return sets, err
}

// parseFloat parses a number field; strconv copies what its error keeps,
// so the conversion stays on the stack.
func parseFloat(b []byte) (float64, error) {
	return strconv.ParseFloat(string(b), 64)
}

// quoteField renders a field, quoting when it contains whitespace, quotes,
// or is empty.
func quoteField(s string) string {
	if s != "" && !strings.ContainsAny(s, " \t\"\\") {
		return s
	}
	var sb strings.Builder
	sb.WriteByte('"')
	for i := 0; i < len(s); i++ {
		if s[i] == '"' || s[i] == '\\' {
			sb.WriteByte('\\')
		}
		sb.WriteByte(s[i])
	}
	sb.WriteByte('"')
	return sb.String()
}

// FormatRecord renders one record as a PTdf line (without newline).
func FormatRecord(rec Record) string {
	switch r := rec.(type) {
	case ApplicationRec:
		return "Application " + quoteField(r.Name)
	case ResourceTypeRec:
		return "ResourceType " + quoteField(string(r.Type))
	case ExecutionRec:
		return "Execution " + quoteField(r.Name) + " " + quoteField(r.App)
	case ResourceRec:
		s := "Resource " + quoteField(string(r.Name)) + " " + quoteField(string(r.Type))
		if r.Exec != "" {
			s += " " + quoteField(r.Exec)
		}
		return s
	case ResourceAttributeRec:
		return "ResourceAttribute " + quoteField(string(r.Resource)) + " " +
			quoteField(r.Attr) + " " + quoteField(r.Value) + " " + quoteField(r.AttrType)
	case ResourceConstraintRec:
		return "ResourceConstraint " + quoteField(string(r.R1)) + " " + quoteField(string(r.R2))
	case PerfResultRec:
		return "PerfResult " + quoteField(r.Exec) + " " +
			quoteField(FormatResourceSet(r.Sets)) + " " +
			quoteField(r.Tool) + " " + quoteField(r.Metric) + " " +
			strconv.FormatFloat(r.Value, 'g', -1, 64) + " " + quoteField(r.Units)
	case PerfHistogramRec:
		return "PerfHistogram " + quoteField(r.Exec) + " " +
			quoteField(FormatResourceSet(r.Sets)) + " " +
			quoteField(r.Tool) + " " + quoteField(r.Metric) + " " +
			strconv.FormatFloat(r.BinWidth, 'g', -1, 64) + " " +
			quoteField(r.Units) + " " + quoteField(FormatHistogramValues(r.Values))
	default:
		return fmt.Sprintf("# unknown record %T", rec)
	}
}

// ParseLine parses one PTdf line. It returns (nil, nil) for blank lines
// and comments.
func ParseLine(line string) (Record, error) {
	var p parser
	rec, res, err := p.parse([]byte(line))
	if res != nil {
		return *res, nil
	}
	return rec, err
}

// needFields checks a record's field count.
func needFields(kind []byte, args [][]byte, n int) error {
	if len(args) != n {
		return fmt.Errorf("ptdf: %s record needs %d fields, got %d", kind, n, len(args))
	}
	return nil
}

// parse parses one line. A result line comes back as res, which is &p.res
// and valid until the next call; any other record comes back as rec. Both
// are nil for blank lines and comments.
func (p *parser) parse(line []byte) (rec Record, res *PerfResultRec, err error) {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return nil, nil, nil
	}
	fields, err := p.split(line)
	if err != nil {
		return nil, nil, err
	}
	kind, args := fields[0], fields[1:]
	switch string(kind) {
	case "PerfResult":
		if err := needFields(kind, args, 6); err != nil {
			return nil, nil, err
		}
		sets, err := p.resourceSet(args[1])
		if err != nil {
			return nil, nil, err
		}
		v, err := parseFloat(args[4])
		if err != nil {
			return nil, nil, fmt.Errorf("ptdf: bad value %q: %w", args[4], err)
		}
		p.res = PerfResultRec{
			Exec: p.name(args[0]), Sets: sets, Tool: p.name(args[2]), Metric: p.name(args[3]),
			Value: v, Units: p.name(args[5]),
		}
		return nil, &p.res, nil
	case "Application":
		if err := needFields(kind, args, 1); err != nil {
			return nil, nil, err
		}
		return ApplicationRec{Name: p.name(args[0])}, nil, nil
	case "ResourceType":
		if err := needFields(kind, args, 1); err != nil {
			return nil, nil, err
		}
		tp := core.TypePath(p.name(args[0]))
		if err := tp.Validate(); err != nil {
			return nil, nil, err
		}
		return ResourceTypeRec{Type: tp}, nil, nil
	case "Execution":
		if err := needFields(kind, args, 2); err != nil {
			return nil, nil, err
		}
		return ExecutionRec{Name: p.name(args[0]), App: p.name(args[1])}, nil, nil
	case "Resource":
		if len(args) != 2 && len(args) != 3 {
			return nil, nil, fmt.Errorf("ptdf: Resource record needs 2 or 3 fields, got %d", len(args))
		}
		name := core.ResourceName(args[0])
		if err := name.Validate(); err != nil {
			return nil, nil, err
		}
		tp := core.TypePath(p.name(args[1]))
		if err := tp.Validate(); err != nil {
			return nil, nil, err
		}
		rec := ResourceRec{Name: name, Type: tp}
		if len(args) == 3 {
			rec.Exec = p.name(args[2])
		}
		return rec, nil, nil
	case "ResourceAttribute":
		if err := needFields(kind, args, 4); err != nil {
			return nil, nil, err
		}
		name := core.ResourceName(args[0])
		if err := name.Validate(); err != nil {
			return nil, nil, err
		}
		attrType := p.name(args[3])
		if attrType != "string" && attrType != "resource" {
			return nil, nil, fmt.Errorf("ptdf: attribute type must be string or resource, got %q", attrType)
		}
		value := string(args[2])
		if attrType == "resource" {
			if err := core.ResourceName(value).Validate(); err != nil {
				return nil, nil, fmt.Errorf("ptdf: resource-typed attribute value: %w", err)
			}
		}
		return ResourceAttributeRec{Resource: name, Attr: p.name(args[1]), Value: value, AttrType: attrType}, nil, nil
	case "ResourceConstraint":
		if err := needFields(kind, args, 2); err != nil {
			return nil, nil, err
		}
		r1 := core.ResourceName(args[0])
		r2 := core.ResourceName(args[1])
		if err := r1.Validate(); err != nil {
			return nil, nil, err
		}
		if err := r2.Validate(); err != nil {
			return nil, nil, err
		}
		return ResourceConstraintRec{R1: r1, R2: r2}, nil, nil
	case "PerfHistogram":
		if err := needFields(kind, args, 7); err != nil {
			return nil, nil, err
		}
		sets, err := p.resourceSet(args[1])
		if err != nil {
			return nil, nil, err
		}
		bw, err := parseFloat(args[4])
		if err != nil || bw <= 0 {
			return nil, nil, fmt.Errorf("ptdf: bad bin width %q", args[4])
		}
		values, err := ParseHistogramValues(string(args[6]))
		if err != nil {
			return nil, nil, err
		}
		return PerfHistogramRec{
			Exec: p.name(args[0]), Sets: sets, Tool: p.name(args[2]), Metric: p.name(args[3]),
			BinWidth: bw, Units: p.name(args[5]), Values: values,
		}, nil, nil
	default:
		return nil, nil, fmt.Errorf("ptdf: unknown record kind %q", kind)
	}
}

// Reader streams records from a PTdf document. It interns the names of a
// document (executions, applications, tools, metrics, units, types and
// attribute names) once, and parses each distinct resource-set text once:
// the records of one Reader that name the same set share one Sets slice,
// which callers must treat as read-only.
type Reader struct {
	sc   *bufio.Scanner
	line int
	p    parser
}

// maxLine bounds one PTdf line.
const maxLine = 16 << 20

// NewReader wraps an io.Reader in a PTdf record stream.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine) // starts at 4 KiB and doubles only for a longer line
	return &Reader{sc: sc, p: parser{names: make(map[string]string), sets: make(map[string][]ResourceSet)}}
}

// Scan reads the next record. A result line comes back as res: a record
// the Reader owns and overwrites on the next call, so a caller that keeps
// it copies it. Any other record comes back as rec. At the end of input
// Scan returns io.EOF; a parse error is annotated with the line number.
// Blank lines and comments are skipped.
func (r *Reader) Scan() (rec Record, res *PerfResultRec, err error) {
	for r.sc.Scan() {
		r.line++
		rec, res, err := r.p.parse(r.sc.Bytes())
		if err != nil {
			return nil, nil, fmt.Errorf("line %d: %w", r.line, err)
		}
		if rec != nil || res != nil {
			return rec, res, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return nil, nil, err
	}
	return nil, nil, io.EOF
}

// Next returns the next record, io.EOF at end of input, or a parse error
// annotated with the line number. Blank lines and comments are skipped.
func (r *Reader) Next() (Record, error) {
	rec, res, err := r.Scan()
	if res != nil {
		return *res, nil
	}
	return rec, err
}

// ReadAll parses every record in the input.
func ReadAll(r io.Reader) ([]Record, error) {
	pr := NewReader(r)
	var out []Record
	for {
		rec, err := pr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

// Writer streams records to a PTdf document.
type Writer struct {
	w     *bufio.Writer
	count int
}

// NewWriter wraps an io.Writer for PTdf output.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write emits one record.
func (w *Writer) Write(rec Record) error {
	if _, err := w.w.WriteString(FormatRecord(rec)); err != nil {
		return err
	}
	w.count++
	return w.w.WriteByte('\n')
}

// Comment emits a comment line.
func (w *Writer) Comment(text string) error {
	_, err := fmt.Fprintf(w.w, "# %s\n", text)
	return err
}

// Count reports how many records have been written.
func (w *Writer) Count() int { return w.count }

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.w.Flush() }

// WriteAll emits all records and flushes.
func WriteAll(w io.Writer, recs []Record) error {
	pw := NewWriter(w)
	for _, rec := range recs {
		if err := pw.Write(rec); err != nil {
			return err
		}
	}
	return pw.Flush()
}
