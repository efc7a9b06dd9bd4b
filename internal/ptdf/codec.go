package ptdf

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"perftrack/internal/core"
)

// splitFields tokenizes a PTdf line: whitespace-separated fields, with
// double-quoted fields allowing embedded whitespace and backslash escapes
// for '"' and '\'.
func splitFields(line string) ([]string, error) {
	var fields []string
	i := 0
	for i < len(line) {
		c := line[i]
		if c == ' ' || c == '\t' {
			i++
			continue
		}
		if c == '"' {
			i++
			var sb strings.Builder
			closed := false
			for i < len(line) {
				switch line[i] {
				case '\\':
					if i+1 >= len(line) {
						return nil, fmt.Errorf("ptdf: trailing backslash")
					}
					sb.WriteByte(line[i+1])
					i += 2
				case '"':
					closed = true
					i++
				default:
					sb.WriteByte(line[i])
					i++
				}
				if closed {
					break
				}
			}
			if !closed {
				return nil, fmt.Errorf("ptdf: unterminated quoted field")
			}
			fields = append(fields, sb.String())
			continue
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		fields = append(fields, line[start:i])
	}
	return fields, nil
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
	return parseLine(line, ParseResourceSet)
}

// parseLine is ParseLine with the resource-set parser given.
func parseLine(line string, parseSets func(string) ([]ResourceSet, error)) (Record, error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return nil, nil
	}
	fields, err := splitFields(trimmed)
	if err != nil {
		return nil, err
	}
	kind := fields[0]
	args := fields[1:]
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("ptdf: %s record needs %d fields, got %d", kind, n, len(args))
		}
		return nil
	}
	switch kind {
	case "Application":
		if err := need(1); err != nil {
			return nil, err
		}
		return ApplicationRec{Name: args[0]}, nil
	case "ResourceType":
		if err := need(1); err != nil {
			return nil, err
		}
		tp := core.TypePath(args[0])
		if err := tp.Validate(); err != nil {
			return nil, err
		}
		return ResourceTypeRec{Type: tp}, nil
	case "Execution":
		if err := need(2); err != nil {
			return nil, err
		}
		return ExecutionRec{Name: args[0], App: args[1]}, nil
	case "Resource":
		if len(args) != 2 && len(args) != 3 {
			return nil, fmt.Errorf("ptdf: Resource record needs 2 or 3 fields, got %d", len(args))
		}
		name := core.ResourceName(args[0])
		if err := name.Validate(); err != nil {
			return nil, err
		}
		tp := core.TypePath(args[1])
		if err := tp.Validate(); err != nil {
			return nil, err
		}
		rec := ResourceRec{Name: name, Type: tp}
		if len(args) == 3 {
			rec.Exec = args[2]
		}
		return rec, nil
	case "ResourceAttribute":
		if err := need(4); err != nil {
			return nil, err
		}
		name := core.ResourceName(args[0])
		if err := name.Validate(); err != nil {
			return nil, err
		}
		if args[3] != "string" && args[3] != "resource" {
			return nil, fmt.Errorf("ptdf: attribute type must be string or resource, got %q", args[3])
		}
		if args[3] == "resource" {
			if err := core.ResourceName(args[2]).Validate(); err != nil {
				return nil, fmt.Errorf("ptdf: resource-typed attribute value: %w", err)
			}
		}
		return ResourceAttributeRec{Resource: name, Attr: args[1], Value: args[2], AttrType: args[3]}, nil
	case "ResourceConstraint":
		if err := need(2); err != nil {
			return nil, err
		}
		r1 := core.ResourceName(args[0])
		r2 := core.ResourceName(args[1])
		if err := r1.Validate(); err != nil {
			return nil, err
		}
		if err := r2.Validate(); err != nil {
			return nil, err
		}
		return ResourceConstraintRec{R1: r1, R2: r2}, nil
	case "PerfResult":
		if err := need(6); err != nil {
			return nil, err
		}
		sets, err := parseSets(args[1])
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(args[4], 64)
		if err != nil {
			return nil, fmt.Errorf("ptdf: bad value %q: %w", args[4], err)
		}
		return PerfResultRec{
			Exec: args[0], Sets: sets, Tool: args[2], Metric: args[3],
			Value: v, Units: args[5],
		}, nil
	case "PerfHistogram":
		if err := need(7); err != nil {
			return nil, err
		}
		sets, err := parseSets(args[1])
		if err != nil {
			return nil, err
		}
		bw, err := strconv.ParseFloat(args[4], 64)
		if err != nil || bw <= 0 {
			return nil, fmt.Errorf("ptdf: bad bin width %q", args[4])
		}
		values, err := ParseHistogramValues(args[6])
		if err != nil {
			return nil, err
		}
		return PerfHistogramRec{
			Exec: args[0], Sets: sets, Tool: args[2], Metric: args[3],
			BinWidth: bw, Units: args[5], Values: values,
		}, nil
	default:
		return nil, fmt.Errorf("ptdf: unknown record kind %q", kind)
	}
}

// Reader streams records from a PTdf document. It parses each distinct
// resource-set text once: the results of one Reader that name the same
// set share one Sets slice, which callers must treat as read-only.
type Reader struct {
	sc   *bufio.Scanner
	line int
	sets map[string][]ResourceSet // each resource-set text parsed so far, by its text
}

// NewReader wraps an io.Reader in a PTdf record stream.
func NewReader(r io.Reader) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{sc: sc, sets: make(map[string][]ResourceSet)}
}

// resourceSet parses a resource-set text, or returns the sets a parse of
// the same text returned before. A text that fails is parsed, and fails,
// each time.
func (r *Reader) resourceSet(text string) ([]ResourceSet, error) {
	if sets, ok := r.sets[text]; ok {
		return sets, nil
	}
	sets, err := ParseResourceSet(text)
	if err == nil {
		r.sets[strings.Clone(text)] = sets // the text is a piece of its line
	}
	return sets, err
}

// Next returns the next record, io.EOF at end of input, or a parse error
// annotated with the line number. Blank lines and comments are skipped.
func (r *Reader) Next() (Record, error) {
	for r.sc.Scan() {
		r.line++
		rec, err := parseLine(r.sc.Text(), r.resourceSet)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", r.line, err)
		}
		if rec == nil {
			continue
		}
		return rec, nil
	}
	if err := r.sc.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
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
