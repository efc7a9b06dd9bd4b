package server

// Buffered JSON replies. Every buffered route answers through writeJSON,
// whose body is indented two spaces a level, byte for byte what
// json.Encoder writes under SetIndent("", "  "). The encoder writes the
// compact form, and indentWriter indents it on its way to the response,
// so a reply is never held twice: SetIndent keeps the compact encoding
// and builds a second, indented copy of it before writing either.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"sync"
)

// writeJSON answers v as JSON with status code, indented as it is written.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	jw := jsonWriters.Get().(*jsonWriter)
	jw.ind = indentWriter{w: jw.bw}
	jw.bw.Reset(w)
	err := jw.enc.Encode(v)
	if ferr := jw.bw.Flush(); err == nil {
		err = ferr
	}
	jw.bw.Reset(nil)
	if err == nil { // an Encoder keeps a write error, so one that failed is not pooled
		jsonWriters.Put(jw)
	}
}

// jsonWriter is one reply's encoding pipeline: an encoder writing the
// compact form into an indentWriter over a buffered response writer.
type jsonWriter struct {
	bw  *bufio.Writer
	ind indentWriter
	enc *json.Encoder
}

var jsonWriters = sync.Pool{New: func() any {
	jw := &jsonWriter{bw: bufio.NewWriter(nil)}
	jw.enc = json.NewEncoder(&jw.ind)
	return jw
}}

// indentWriter indents compact JSON as encoding/json's Indent does with
// an empty prefix and a two-space indent: a newline and the indent of
// the new depth follows every ',' and every '{' or '[' that opens a
// non-empty value, and precedes the '}' or ']' that closes one, so an
// empty object or array stays {} or []; ':' gains one space. Bytes
// inside strings pass through as they are, a '\' escaping the next.
type indentWriter struct {
	w        *bufio.Writer
	depth    int
	open     bool // a '{' or '[' was written, and its newline is not yet
	inString bool
	escaped  bool
}

func (iw *indentWriter) Write(p []byte) (int, error) {
	from := 0 // p[from:i] is passed through as it is
	pass := func(to int) {
		iw.w.Write(p[from:to])
		from = to
	}
	for i, c := range p {
		if iw.inString {
			switch {
			case iw.escaped:
				iw.escaped = false
			case c == '\\':
				iw.escaped = true
			case c == '"':
				iw.inString = false
			}
			continue
		}
		if iw.open && c != '}' && c != ']' { // the first member of an opened value
			pass(i)
			iw.open = false
			iw.depth++
			iw.newline()
		}
		switch c {
		case '"':
			iw.inString = true
		case '{', '[':
			pass(i + 1)
			iw.open = true
		case ',':
			pass(i + 1)
			iw.newline()
		case ':':
			pass(i + 1)
			iw.w.WriteByte(' ')
		case '}', ']':
			pass(i)
			if iw.open {
				iw.open = false
			} else {
				iw.depth--
				iw.newline()
			}
		}
	}
	_, err := iw.w.Write(p[from:])
	return len(p), err
}

func (iw *indentWriter) newline() {
	iw.w.WriteByte('\n')
	for range iw.depth {
		iw.w.WriteString("  ")
	}
}
