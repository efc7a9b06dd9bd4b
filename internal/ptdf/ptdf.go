// Package ptdf implements the PerfTrack data format (PTdf) from Figure 6
// of the paper: the line-oriented interchange format used to define
// resource types, resources, attributes, constraints, executions, and
// performance results, and to load them into a PerfTrack data store.
//
// Record forms:
//
//	Application appName
//	ResourceType resourceTypeName
//	Execution execName appName
//	Resource resourceName resourceTypeName [execName]
//	ResourceAttribute resourceName attributeName attributeValue attributeType
//	ResourceConstraint resourceName1 resourceName2
//	PerfResult execName resourceSet perfToolName metricName value units
//
// Fields are whitespace-separated; a field containing whitespace is
// double-quoted with backslash escapes. attributeType is "string" or
// "resource" (the latter is equivalent to a ResourceConstraint). A
// resourceSet is one or more lists of resource names separated by ':';
// each list is a comma-separated run of resource names followed by a
// resource-set (focus) type name in parentheses, e.g.
//
//	/irs,/MCR/batch(primary):/e1/p0(sender):/e1/p1(receiver)
//
// Lines beginning with '#' are comments.
package ptdf

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"perftrack/internal/core"
)

// Record is one PTdf line.
type Record interface{ record() }

// ApplicationRec declares an application.
type ApplicationRec struct {
	Name string
}

// ResourceTypeRec declares (extends) a resource type.
type ResourceTypeRec struct {
	Type core.TypePath
}

// ExecutionRec declares an execution (one run) of an application.
type ExecutionRec struct {
	Name string
	App  string
}

// ResourceRec declares a resource, optionally scoped to an execution.
type ResourceRec struct {
	Name core.ResourceName
	Type core.TypePath
	Exec string // optional
}

// ResourceAttributeRec attaches an attribute to a resource. AttrType is
// "string" or "resource"; the latter makes Value a resource name and is
// equivalent to a ResourceConstraintRec.
type ResourceAttributeRec struct {
	Resource core.ResourceName
	Attr     string
	Value    string
	AttrType string
}

// ResourceConstraintRec records a resource-valued attribute linking two
// resources.
type ResourceConstraintRec struct {
	R1, R2 core.ResourceName
}

// ResourceSet is one focus-typed list of resources within a PerfResult.
type ResourceSet struct {
	Names []core.ResourceName
	Type  core.FocusType
}

// PerfResultRec records one scalar performance result.
type PerfResultRec struct {
	Exec   string
	Sets   []ResourceSet // shared by the records of a Reader that name the same sets: read-only
	Tool   string
	Metric string
	Value  float64
	Units  string
}

// PerfHistogramRec records one histogram-valued (complex) performance
// result: a whole time-series of bins in a single record. This is the
// format extension for the paper's future-work item on complex
// performance results, which avoids creating a new performance result for
// each bin of a Paradyn histogram file. Bins with no data are NaN.
//
//	PerfHistogram execName resourceSet perfToolName metricName binWidth units values
//
// where values is a comma-separated list of numbers with "nan" allowed.
type PerfHistogramRec struct {
	Exec     string
	Sets     []ResourceSet // as PerfResultRec's: read-only
	Tool     string
	Metric   string
	BinWidth float64
	Units    string
	Values   []float64
}

func (ApplicationRec) record()        {}
func (ResourceTypeRec) record()       {}
func (ExecutionRec) record()          {}
func (ResourceRec) record()           {}
func (ResourceAttributeRec) record()  {}
func (ResourceConstraintRec) record() {}
func (PerfResultRec) record()         {}
func (PerfHistogramRec) record()      {}

// FormatHistogramValues renders histogram bins as a comma-separated list
// with "nan" for missing bins.
func FormatHistogramValues(values []float64) string {
	var b strings.Builder
	for i, v := range values {
		if i > 0 {
			b.WriteByte(',')
		}
		if math.IsNaN(v) {
			b.WriteString("nan")
		} else {
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	return b.String()
}

// ParseHistogramValues parses the comma-separated bin list.
func ParseHistogramValues(s string) ([]float64, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("ptdf: empty histogram values")
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "nan" {
			out = append(out, math.NaN())
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("ptdf: bad histogram value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// FormatResourceSet renders resource sets in PTdf syntax.
func FormatResourceSet(sets []ResourceSet) string {
	var b strings.Builder
	for i, s := range sets {
		if i > 0 {
			b.WriteByte(':')
		}
		for j, n := range s.Names {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(string(n))
		}
		fmt.Fprintf(&b, "(%s)", s.Type)
	}
	return b.String()
}

// ParseResourceSet parses PTdf resource-set syntax. Spaces around
// delimiters are tolerated. The names of every set share one backing
// array, and each name is a substring of s.
func ParseResourceSet(s string) ([]ResourceSet, error) {
	sets := make([]ResourceSet, 0, strings.Count(s, ":")+1)
	all := make([]core.ResourceName, 0, strings.Count(s, ",")+cap(sets))
	for rest, more := s, true; more; {
		var part string
		part, rest, more = cutTopLevel(rest, ':')
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("ptdf: empty resource set in %q", s)
		}
		open := strings.LastIndexByte(part, '(')
		if open < 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("ptdf: resource set %q missing (type)", part)
		}
		typeName := strings.TrimSpace(part[open+1 : len(part)-1])
		ft, err := core.ParseFocusType(typeName)
		if err != nil {
			return nil, fmt.Errorf("ptdf: resource set %q: %w", part, err)
		}
		first := len(all)
		for list, more := part[:open], true; more; {
			var n string
			n, list, more = strings.Cut(list, ",")
			n = strings.TrimSpace(n)
			if n == "" {
				return nil, fmt.Errorf("ptdf: resource set %q has an empty name", part)
			}
			name := core.ResourceName(n)
			if err := name.Validate(); err != nil {
				return nil, fmt.Errorf("ptdf: %w", err)
			}
			all = append(all, name)
		}
		sets = append(sets, ResourceSet{Names: all[first:len(all):len(all)], Type: ft})
	}
	return sets, nil
}

// cutTopLevel slices s around the first sep outside parentheses.
func cutTopLevel(s string, sep byte) (before, after string, found bool) {
	depth := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				return s[:i], s[i+1:], true
			}
		}
	}
	return s, "", false
}
