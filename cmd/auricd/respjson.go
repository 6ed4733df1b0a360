package main

import (
	"errors"
	"math"
	"strconv"
	"unicode/utf8"

	"auric"
)

// The POST /v1/recommend responses are written by a single-pass appender
// rather than encoding/json, whose SetIndent marshals compactly and then
// re-scans the whole ~120 KB pair-wise body to indent it. The appender
// writes straight from the engine's recommendations, byte-identical to
// encoding/json over the recommendation and batchEntry schema (map keys
// sorted, struct fields in declared order, omitempty, HTML-safe string
// escapes, float formatting, SetIndent("", "  ") for the buffered forms,
// and the trailing newline). The oracle test and FuzzRecommendResponse pin
// that equivalence; a new response field means updating the appender and
// the test oracle together.

// recommendation is the wire schema of one recommended value.
type recommendation struct {
	Param string `json:"param"`
	// Neighbor is -1 for singular parameters; 0 is a valid carrier id,
	// so the field is never omitted.
	Neighbor    int     `json:"neighbor"`
	Value       float64 `json:"value"`
	Confidence  float64 `json:"confidence"`
	Supported   bool    `json:"supported"`
	Explanation string  `json:"explanation"`
	// Evidence diagnostics (see internal/learn.Diag): the relaxation
	// level the vote settled at and the size of the voting pool.
	RelaxationLevel int `json:"relaxationLevel"`
	Candidates      int `json:"candidates"`
}

// batchEntry is the wire schema of one item's slot in a batch response
// (and of one NDJSON line): recommendations or an error, never both.
type batchEntry struct {
	Carrier         int              `json:"carrier"`
	Error           string           `json:"error,omitempty"`
	Recommendations []recommendation `json:"recommendations,omitempty"`
}

// batchSlot is one batch item's outcome awaiting encoding as a batchEntry.
type batchSlot struct {
	carrier int
	err     string
	recs    []auric.Recommendation
}

// errNonFinite is the encoding failure of a NaN or infinite value, which
// JSON cannot represent.
var errNonFinite = errors.New("non-finite float value")

// appendRecommendResponse appends the single-object response:
// {"carrier", "recommendations", "traceId"}, indented, newline-terminated.
func appendRecommendResponse(dst []byte, carrier int, recs []auric.Recommendation, traceID string) ([]byte, error) {
	e := respEncoder{buf: dst, indent: true}
	e.buf = append(e.buf, '{')
	e.key(1, `"carrier":`)
	e.int(carrier)
	e.next(1, `"recommendations":`)
	e.recommendations(recs, 1)
	e.next(1, `"traceId":`)
	e.str(traceID)
	e.newline(0)
	e.buf = append(e.buf, '}', '\n')
	return e.buf, e.err
}

// appendBatchResponse appends the buffered batch response:
// {"results", "traceId"}, indented, newline-terminated.
func appendBatchResponse(dst []byte, slots []batchSlot, traceID string) ([]byte, error) {
	e := respEncoder{buf: dst, indent: true}
	e.buf = append(e.buf, '{')
	e.key(1, `"results":`)
	e.buf = append(e.buf, '[')
	for i := range slots {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline(2)
		e.entry(&slots[i], 2)
	}
	if len(slots) > 0 {
		e.newline(1)
	}
	e.buf = append(e.buf, ']')
	e.next(1, `"traceId":`)
	e.str(traceID)
	e.newline(0)
	e.buf = append(e.buf, '}', '\n')
	return e.buf, e.err
}

// appendBatchLine appends one NDJSON line: the compact batchEntry of slot
// plus its newline.
func appendBatchLine(dst []byte, slot *batchSlot) ([]byte, error) {
	e := respEncoder{buf: dst}
	e.entry(slot, 0)
	e.buf = append(e.buf, '\n')
	return e.buf, e.err
}

// respEncoder appends JSON to buf, indenting by two spaces per depth level
// when indent is set. err keeps the first encoding failure.
type respEncoder struct {
	buf    []byte
	indent bool
	err    error
}

// indents holds a newline plus the widest indent the responses nest to.
const indents = "\n          "

func (e *respEncoder) newline(depth int) {
	if e.indent {
		e.buf = append(e.buf, indents[:1+2*depth]...)
	}
}

// key starts an object's first field; name is the quoted key and colon.
func (e *respEncoder) key(depth int, name string) {
	e.newline(depth)
	e.buf = append(e.buf, name...)
	if e.indent {
		e.buf = append(e.buf, ' ')
	}
}

// next starts an object's following field.
func (e *respEncoder) next(depth int, name string) {
	e.buf = append(e.buf, ',')
	e.key(depth, name)
}

func (e *respEncoder) entry(s *batchSlot, depth int) {
	e.buf = append(e.buf, '{')
	e.key(depth+1, `"carrier":`)
	e.int(s.carrier)
	if s.err != "" {
		e.next(depth+1, `"error":`)
		e.str(s.err)
	}
	if len(s.recs) > 0 {
		e.next(depth+1, `"recommendations":`)
		e.recommendations(s.recs, depth+1)
	}
	e.newline(depth)
	e.buf = append(e.buf, '}')
}

// recommendations encodes recs as a []recommendation: null when nil.
func (e *respEncoder) recommendations(recs []auric.Recommendation, depth int) {
	if recs == nil {
		e.buf = append(e.buf, "null"...)
		return
	}
	e.buf = append(e.buf, '[')
	for i := range recs {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline(depth + 1)
		e.recommendation(&recs[i], depth+1)
	}
	if len(recs) > 0 {
		e.newline(depth)
	}
	e.buf = append(e.buf, ']')
}

func (e *respEncoder) recommendation(r *auric.Recommendation, depth int) {
	d := depth + 1
	e.buf = append(e.buf, '{')
	e.key(d, `"param":`)
	e.str(r.Param)
	e.next(d, `"neighbor":`)
	e.int(int(r.Neighbor))
	e.next(d, `"value":`)
	e.float(r.Value)
	e.next(d, `"confidence":`)
	e.float(r.Confidence)
	e.next(d, `"supported":`)
	e.buf = strconv.AppendBool(e.buf, r.Supported)
	e.next(d, `"explanation":`)
	e.str(r.Explanation)
	e.next(d, `"relaxationLevel":`)
	e.int(r.RelaxationLevel)
	e.next(d, `"candidates":`)
	e.int(r.Candidates)
	e.newline(depth)
	e.buf = append(e.buf, '}')
}

func (e *respEncoder) int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// float follows encoding/json's float64 encoding: the shortest 'f' form,
// switching to 'e' outside [1e-6, 1e21) with a two-digit exponent trimmed
// to one (e-07 -> e-7); NaN and +/-Inf are errors.
func (e *respEncoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = errNonFinite
		}
		e.buf = append(e.buf, "null"...)
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(e.buf); n >= 4 && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// htmlSafe marks the ASCII bytes a JSON string carries unescaped.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		safe[c] = true
	}
	for _, c := range `"\<>&` {
		safe[c] = false
	}
	return safe
}()

// str follows encoding/json's HTML-safe string encoding: quotes and
// backslashes escaped, control characters as \n, \r, \t, \b, \f or \u00XX,
// <, > and & as \u003c, \u003e and \u0026, U+2028 and U+2029 escaped,
// and each invalid UTF-8 byte replaced by \ufffd.
func (e *respEncoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
