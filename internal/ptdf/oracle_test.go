package ptdf

// The string-based line parser the Reader's byte tokenizer replaced, kept
// as the oracle FuzzReaderMatchesOracle compares the Reader against.

import (
	"fmt"
	"strconv"
	"strings"

	"perftrack/internal/core"
)

// oracleSplitFields tokenizes a PTdf line: whitespace-separated fields, with
// double-quoted fields allowing embedded whitespace and backslash escapes
// for '"' and '\'.
func oracleSplitFields(line string) ([]string, error) {
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

// oracleParseLine is the string-based ParseLine, with the resource-set
// parser given.
func oracleParseLine(line string, parseSets func(string) ([]ResourceSet, error)) (Record, error) {
	trimmed := strings.TrimSpace(line)
	if trimmed == "" || strings.HasPrefix(trimmed, "#") {
		return nil, nil
	}
	fields, err := oracleSplitFields(trimmed)
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
