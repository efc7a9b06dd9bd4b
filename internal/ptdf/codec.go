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

// Dict numbers the names and resource sets that records refer to: each
// distinct name (of any field) and each distinct resource-set text gets
// one small index, in first-seen order, so a Result names them by index.
// A Reader fills one as it reads; a datastore batch staging records one
// at a time adds to the same table with Name and AddSets.
type Dict struct {
	Names  []string
	Sets   [][]ResourceSet // read-only: the records naming a set share its slice
	names  map[string]int32
	texts  map[string]int32   // a set parsed from text, by its text
	slices map[setSlice]int32 // every set, by its slice
}

// setSlice identifies a resource-set slice: the records of a Reader that
// name one set share it.
type setSlice struct {
	first *ResourceSet
	n     int
}

// Name returns the index of s, adding s if it is new.
func (d *Dict) Name(s string) int32 {
	if i, ok := d.names[s]; ok {
		return i
	}
	return d.addName(s)
}

// nameOf is Name for a field's bytes: a new name is copied once, a known
// one not at all.
func (d *Dict) nameOf(b []byte) int32 {
	if i, ok := d.names[string(b)]; ok {
		return i
	}
	return d.addName(string(b))
}

func (d *Dict) addName(s string) int32 {
	if d.names == nil {
		d.names = make(map[string]int32)
	}
	i := int32(len(d.Names))
	d.Names = append(d.Names, s)
	d.names[s] = i
	return i
}

// AddSets returns the index of sets, adding them if the slice is new.
func (d *Dict) AddSets(sets []ResourceSet) int32 {
	k := setSlice{n: len(sets)}
	if len(sets) > 0 {
		k.first = &sets[0]
	}
	if i, ok := d.slices[k]; ok {
		return i
	}
	if d.slices == nil {
		d.slices = make(map[setSlice]int32)
	}
	i := int32(len(d.Sets))
	d.Sets = append(d.Sets, sets)
	d.slices[k] = i
	return i
}

// record returns a result line as the record it encodes.
func (d *Dict) record(r *Result) PerfResultRec {
	return PerfResultRec{
		Exec: d.Names[r.Exec], Sets: d.Sets[r.Set], Tool: d.Names[r.Tool],
		Metric: d.Names[r.Metric], Value: r.Value, Units: d.Names[r.Units],
	}
}

// Result is a PerfResult line as a Reader reads it: its names and
// resource set as indices into the Reader's Dict, and its value.
type Result struct {
	Exec, Set, Tool, Metric, Units int32
	Value                          float64
}

// parser turns PTdf lines into records without per-line garbage: it
// tokenizes a line's bytes into one reused field buffer, unescapes quoted
// fields into one reused scratch buffer, and numbers a result line's
// names and resource set in its Dict, parsing each distinct resource-set
// text once. A result field equal to the same field of the result line
// before costs one comparison, no lookup.
type parser struct {
	fields  [][]byte
	scratch []byte
	dict    *Dict
	last    [5]int32 // the index each result field had on the last result line, -1 for none
	lastSet []byte   // the resource-set text of that line
	res     Result
}

func newParser(d *Dict) parser {
	return parser{dict: d, last: [5]int32{-1, -1, -1, -1, -1}}
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
	tabs := bytes.IndexByte(line, '\t') >= 0 // without one, a field ends at the next space
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
			if tabs {
				for i < len(line) && line[i] != ' ' && line[i] != '\t' {
					i++
				}
			} else if j := bytes.IndexByte(line[i:], ' '); j >= 0 {
				i += j
			} else {
				i = len(line)
			}
			fields = append(fields, line[start:i])
		}
	}
	p.fields = fields
	return fields, nil
}

// name returns b as a string, the same string for every repeat of it.
func (p *parser) name(b []byte) string {
	return p.dict.Names[p.dict.nameOf(b)]
}

// field returns the index of result field k's name b.
func (p *parser) field(k int, b []byte) int32 {
	if i := p.last[k]; i >= 0 && string(b) == p.dict.Names[i] {
		return i
	}
	i := p.dict.nameOf(b)
	p.last[k] = i
	return i
}

// resourceSet returns the index of a result line's resource-set text,
// parsing the text the first time. A text that fails is parsed, and
// fails, each time.
func (p *parser) resourceSet(text []byte) (int32, error) {
	d := p.dict
	if i := p.last[1]; i >= 0 && bytes.Equal(text, p.lastSet) {
		return i, nil
	}
	i, ok := d.texts[string(text)]
	if !ok {
		s := string(text)
		sets, err := ParseResourceSet(s)
		if err != nil {
			return 0, err
		}
		if d.texts == nil {
			d.texts = make(map[string]int32)
		}
		i = d.AddSets(sets)
		d.texts[s] = i
	}
	p.last[1], p.lastSet = i, append(p.lastSet[:0], text...)
	return i, nil
}

// parseFloat parses a number field. A plain decimal — digits, at most one
// point, an optional sign, a mantissa below 2^53 and at most 22 digits
// after the point, the form every generator writes — converts on the
// spot: its mantissa and its power of ten are exact float64s, so their
// quotient rounds once, as strconv's would (Clinger's fast path). Any
// other field goes to strconv, which copies what its error keeps, so the
// conversion stays on the stack.
func parseFloat(b []byte) (float64, error) {
	if v, ok := plainDecimal(b); ok {
		return v, nil
	}
	return strconv.ParseFloat(string(b), 64)
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// plainDecimal converts b when it is a plain decimal parseFloat may
// convert itself, and reports whether it was.
func plainDecimal(b []byte) (float64, bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		neg, i = b[0] == '-', 1
	}
	var mant uint64
	digits, frac := 0, -1 // frac counts the digits after the point, once there is one
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			mant = mant*10 + uint64(c-'0')
			digits++
			if frac >= 0 {
				frac++
			}
		case c == '.' && frac < 0:
			frac = 0
		default:
			return 0, false
		}
	}
	if digits == 0 || digits > 19 || mant >= 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	v := float64(mant)
	if frac > 0 {
		v /= pow10[frac]
	}
	if neg {
		v = -v
	}
	return v, true
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
	p := newParser(new(Dict))
	rec, res, err := p.parse([]byte(line))
	if res != nil {
		return p.dict.record(res), nil
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
func (p *parser) parse(line []byte) (rec Record, res *Result, err error) {
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
		set, err := p.resourceSet(args[1])
		if err != nil {
			return nil, nil, err
		}
		v, err := parseFloat(args[4])
		if err != nil {
			return nil, nil, fmt.Errorf("ptdf: bad value %q: %w", args[4], err)
		}
		p.res = Result{
			Exec: p.field(0, args[0]), Set: set, Tool: p.field(2, args[2]), Metric: p.field(3, args[3]),
			Units: p.field(4, args[5]), Value: v,
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
		set, err := p.resourceSet(args[1])
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
			Exec: p.name(args[0]), Sets: p.dict.Sets[set], Tool: p.name(args[2]), Metric: p.name(args[3]),
			BinWidth: bw, Units: p.name(args[5]), Values: values,
		}, nil, nil
	default:
		return nil, nil, fmt.Errorf("ptdf: unknown record kind %q", kind)
	}
}

// Reader streams records from a PTdf document. It interns the names of a
// document (executions, applications, tools, metrics, units, types and
// attribute names) once, and parses each distinct resource-set text once,
// numbering both in its Dict: the records of one Reader that name the
// same set share one Sets slice, which callers must treat as read-only.
type Reader struct {
	sc   *bufio.Scanner
	line int
	p    parser
}

// maxLine bounds one PTdf line.
const maxLine = 16 << 20

// NewReader wraps an io.Reader in a PTdf record stream.
func NewReader(r io.Reader) *Reader { return NewDictReader(r, new(Dict)) }

// NewDictReader is NewReader numbering result lines in d, which may
// already hold names and sets.
func NewDictReader(r io.Reader, d *Dict) *Reader {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, maxLine) // starts at 4 KiB and doubles only for a longer line
	return &Reader{sc: sc, p: newParser(d)}
}

// Scan reads the next record. A result line comes back as res: its names
// and set as indices into the Reader's Dict, in a Result the Reader owns
// and overwrites on the next call. Any other record comes back as rec. At
// the end of input Scan returns io.EOF; a parse error is annotated with
// the line number. Blank lines and comments are skipped.
func (r *Reader) Scan() (rec Record, res *Result, err error) {
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
		return r.p.dict.record(res), nil
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
	w *bufio.Writer
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
	return w.w.WriteByte('\n')
}

// Comment emits a comment line.
func (w *Writer) Comment(text string) error {
	_, err := fmt.Fprintf(w.w, "# %s\n", text)
	return err
}

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
