package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
)

// jsonShape builds a nested value from fuzz input: shape picks each
// node's kind and size, text is cut into its keys and strings, and x
// seeds its floats.
type jsonShape struct {
	shape []byte
	text  string
	x     float64
}

func (g *jsonShape) next() byte {
	if len(g.shape) == 0 {
		return 0
	}
	b := g.shape[0]
	g.shape = g.shape[1:]
	return b
}

// str cuts the next piece of text, raw bytes and all.
func (g *jsonShape) str() string {
	n := min(int(g.next()%16), len(g.text))
	s := g.text[:n]
	g.text = g.text[n:]
	return s
}

func (g *jsonShape) value(depth int) any {
	op := g.next()
	if depth > 5 && op%8 >= 4 {
		op = 1
	}
	switch op % 8 {
	case 0:
		return nil
	case 1:
		return g.str()
	case 2: // x scaled across exponents, where the float form changes
		return g.x * math.Pow10(int(int8(g.next()))%40)
	case 3:
		return op >= 128
	case 4:
		arr := []any{}
		for range g.next() % 5 {
			arr = append(arr, g.value(depth+1))
		}
		return arr
	case 5:
		obj := map[string]any{}
		for range g.next() % 5 {
			obj[g.str()] = g.value(depth + 1)
		}
		return obj
	case 6:
		return struct {
			Empty  []int          `json:"empty"`
			Nested [][]int        `json:"nested"`
			Obj    map[string]int `json:"obj"`
			Omit   string         `json:"omit,omitempty"`
			Inner  any            `json:"inner"`
		}{Empty: []int{}, Nested: [][]int{{}, {}}, Obj: map[string]int{}, Inner: g.value(depth + 1)}
	}
	return json.RawMessage(`{ "a" : [ 1 , { } , [ ] ] }`)
}

// setIndentJSON is what writeJSON must write: json.Encoder's output
// under SetIndent("", "  ").
func setIndentJSON(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// FuzzWriteJSON holds writeJSON's body to json.Encoder's under
// SetIndent("", "  ") for random nested values: objects with arbitrary
// keys, strings of any bytes, empty and nested-empty objects and arrays,
// and floats on both sides of the exponent-form boundaries.
func FuzzWriteJSON(f *testing.F) {
	f.Add([]byte{5, 3, 1, 4, 2, 0}, "key", 1.5)
	f.Add([]byte{5, 2, 4, 1, 4, 0, 5, 0}, "a\"b\\c", 0.0)
	f.Add([]byte{4, 3, 1, 7, 1, 9, 1, 12}, "\x00\x01\x1f\"\\<>&\u2028\u2029\xff\xfe", 2.0)
	f.Add([]byte{5, 4, 9, 4, 4, 0, 4, 0, 5, 0, 6, 6, 0}, "\xc3\x28 é ✓", -3.25)
	f.Add([]byte{4, 4, 2, 21, 2, 20, 2, 250, 2, 249}, "", 1.0)
	f.Add([]byte{4, 4, 2, 0, 2, 0, 2, 0, 2, 0}, "", 9.999999999999999e20)
	f.Add([]byte{4, 4, 2, 0, 2, 0, 2, 0, 2, 0}, "", 1e-6)
	f.Add([]byte{4, 2, 2, 0, 2, 0}, "", 9.99999e-7)
	f.Add([]byte{4, 2, 2, 0, 2, 0}, "", math.MaxFloat64)
	f.Add([]byte{4, 2, 2, 0, 2, 0}, "", math.SmallestNonzeroFloat64)
	f.Add([]byte{4, 1, 2, 0}, "", math.NaN())
	f.Add([]byte{7}, "", 0.0)
	f.Add([]byte{}, "", 0.0)
	f.Fuzz(func(t *testing.T, shape []byte, text string, x float64) {
		g := &jsonShape{shape: shape, text: text, x: x}
		v := g.value(0)
		want := setIndentJSON(v)
		rec := httptest.NewRecorder()
		writeJSON(rec, 200, v)
		if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
			t.Fatalf("writeJSON wrote\n%q\nSetIndent writes\n%q", got, want)
		}
	})
}
