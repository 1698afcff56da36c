package main

// wire.go is the hand-framed JSON codec of the read endpoints: one decoder
// for the {"sql","params","confidence"} body that /query, /estimate and
// /explain accept, and one appender for an estimate and for a result row.
// Both equal encoding/json — the decoder accepts exactly what
// json.Decoder.Decode(&apiRequest{}) accepts and yields the same values,
// the appender writes the bytes a json.Encoder with SetEscapeHTML(false)
// writes — and FuzzDecodeRequest and FuzzEncodeWire hold them to it. They
// exist because the reflective codec was a fifth of the server's CPU on a
// result-cache hit; the mutation and reload bodies stay with encoding/json.

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/deepdb"
)

// maxNestingDepth is encoding/json's bound on nested arrays and objects.
const maxNestingDepth = 10000

var (
	errTooDeep  = errors.New("exceeded max depth")
	errSQLType  = errors.New(`"sql" must be a string`)
	errParams   = errors.New(`"params" must be an array`)
	errConfType = errors.New(`"confidence" must be a number`)
	errNotObj   = errors.New("body must be a JSON object")
)

// reqDecoder walks one JSON text. scratch holds the last unescaped string
// that could not be a slice of data; it is overwritten by the next one, and
// starts out as data's spare capacity.
type reqDecoder struct {
	data    []byte
	off     int
	depth   int
	scratch []byte
}

// decodeAPIRequest decodes the first JSON value of data into an apiRequest
// as json.Decoder.Decode would: member names match case-insensitively
// (encoding/json's folding), the last of duplicate members wins, a null
// member leaves the field as it is, unknown members are skipped, and
// anything after the first value is ignored. Params decode as encoding/json
// decodes into []any: numbers as float64, objects as map[string]any.
// Truncated input answers io.ErrUnexpectedEOF, empty input io.EOF. Strings
// with escapes are unescaped into data's spare capacity, which the caller
// gives up.
func decodeAPIRequest(data []byte) (apiRequest, error) {
	var req apiRequest
	d := reqDecoder{data: data, scratch: data[len(data):]}
	d.skipSpace()
	if d.off == len(d.data) {
		return req, io.EOF
	}
	switch d.data[d.off] {
	case '{':
		return req, d.object(&req)
	case 'n':
		return req, d.literal("null")
	}
	return req, errNotObj
}

// object decodes the top-level object into req.
func (d *reqDecoder) object(req *apiRequest) error {
	d.off++ // '{'
	d.depth = 1
	d.skipSpace()
	if d.peek() == '}' {
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntaxErr()
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		field := memberOf(key)
		if err := d.colon(); err != nil {
			return err
		}
		switch c := d.peek(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			if field == "params" {
				req.Params = nil
			}
		case field == "sql":
			if c != '"' {
				return errSQLType
			}
			s, err := d.str()
			if err != nil {
				return err
			}
			req.SQL = string(s)
		case field == "confidence":
			if c != '-' && (c < '0' || c > '9') {
				return errConfType
			}
			tok, err := d.number()
			if err != nil {
				return err
			}
			f, err := strconv.ParseFloat(string(tok), 64)
			if err != nil {
				return err
			}
			req.Confidence = f
		case field == "params":
			if c != '[' {
				return errParams
			}
			v, err := d.value(true)
			if err != nil {
				return err
			}
			req.Params = v.([]any)
		default:
			if _, err := d.value(false); err != nil {
				return err
			}
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case '}':
			return nil
		default:
			return d.syntaxErr()
		}
	}
}

// memberOf names the apiRequest field a member name selects under
// encoding/json's matching, or "" for an unknown member.
func memberOf(key []byte) string {
	for _, name := range [...]string{"sql", "params", "confidence"} {
		if string(key) == name || foldsTo(key, name) {
			return name
		}
	}
	return ""
}

// foldsTo reports whether encoding/json folds key to the folded form of the
// lower-case ASCII name: ASCII letters fold to upper case, every other rune
// to the smallest rune of its simple-fold orbit (so 'ſ' matches 's'), and
// invalid UTF-8 to U+FFFD.
func foldsTo(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		if j == len(name) {
			return false
		}
		want := rune(name[j] - ('a' - 'A'))
		if c := key[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			if rune(c) != want {
				return false
			}
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		if foldRune(r) != want {
			return false
		}
		i += n
	}
	return j == len(name)
}

// foldRune is encoding/json's: the smallest rune of r's fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// value parses the JSON value at the cursor. With keep it returns it as
// encoding/json decodes into an empty interface; without, it only checks
// it.
func (d *reqDecoder) value(keep bool) (any, error) {
	switch c := d.peek(); {
	case c == '{':
		return d.container(keep, '}')
	case c == '[':
		return d.container(keep, ']')
	case c == '"':
		s, err := d.str()
		if err != nil || !keep {
			return nil, err
		}
		return string(s), nil
	case c == 't':
		return true, d.literal("true")
	case c == 'f':
		return false, d.literal("false")
	case c == 'n':
		return nil, d.literal("null")
	case c == '-' || ('0' <= c && c <= '9'):
		tok, err := d.number()
		if err != nil || !keep {
			return nil, err
		}
		f, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	return nil, d.syntaxErr()
}

// container parses an array (end ']') or an object (end '}').
func (d *reqDecoder) container(keep bool, end byte) (any, error) {
	if d.depth++; d.depth > maxNestingDepth {
		return nil, errTooDeep
	}
	d.off++
	d.skipSpace()
	var arr []any
	var obj map[string]any
	if keep {
		if end == ']' {
			arr = make([]any, 0, 4) // params are a few bindings
		} else {
			obj = make(map[string]any)
		}
	}
	if d.peek() == end {
		d.off++
		d.depth--
		if end == ']' {
			return arr, nil
		}
		return obj, nil
	}
	for {
		var key string
		if end == '}' {
			if d.peek() != '"' {
				return nil, d.syntaxErr()
			}
			k, err := d.str()
			if err != nil {
				return nil, err
			}
			if keep {
				key = string(k)
			}
			if err := d.colon(); err != nil {
				return nil, err
			}
		}
		v, err := d.value(keep)
		if err != nil {
			return nil, err
		}
		if keep {
			if end == ']' {
				arr = append(arr, v)
			} else {
				obj[key] = v
			}
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.off++
			d.skipSpace()
		case end:
			d.off++
			d.depth--
			if end == ']' {
				return arr, nil
			}
			return obj, nil
		default:
			return nil, d.syntaxErr()
		}
	}
}

// colon consumes the ':' after a member name and the space around it.
func (d *reqDecoder) colon() error {
	d.skipSpace()
	if d.peek() != ':' {
		return d.syntaxErr()
	}
	d.off++
	d.skipSpace()
	return nil
}

// str parses the string at the cursor, checking it like encoding/json's
// scanner, and returns its unquoted bytes: escapes resolved, invalid
// surrogate escapes and invalid UTF-8 replaced by U+FFFD as encoding/json
// does. The result aliases data or scratch and is valid until the next
// call.
func (d *reqDecoder) str() ([]byte, error) {
	start := d.off + 1 // after the '"'
	escaped, ascii := false, true
	for i := start; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			s := d.data[start:i]
			d.off = i + 1
			if !escaped && (ascii || utf8.Valid(s)) {
				return s, nil
			}
			return d.unescape(s), nil
		case c < ' ':
			return nil, d.syntaxErrAt(i)
		case c >= utf8.RuneSelf:
			ascii = false
		case c == '\\':
			escaped = true
			if i++; i == len(d.data) {
				return nil, io.ErrUnexpectedEOF
			}
			switch d.data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(d.data) {
						return nil, io.ErrUnexpectedEOF
					}
					if !isHex(d.data[i]) {
						return nil, d.syntaxErrAt(i)
					}
				}
			default:
				return nil, d.syntaxErrAt(i)
			}
		}
	}
	return nil, io.ErrUnexpectedEOF
}

// unescape is encoding/json's unquote over a syntactically valid string
// body s, written into scratch.
func (d *reqDecoder) unescape(s []byte) []byte {
	b := d.scratch[:0]
	for r := 0; r < len(s); {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if r+6 <= len(s) && s[r] == '\\' && s[r+1] == 'u' {
						rr1 = hex4(s[r+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	d.scratch = b
	return b
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 reads the four hex digits of a checked \u escape.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number returns the JSON number token at the cursor.
func (d *reqDecoder) number() ([]byte, error) {
	start := d.off
	if d.peek() == '-' {
		d.off++
	}
	switch c := d.peek(); {
	case c == '0':
		d.off++
	case '1' <= c && c <= '9':
		d.digits()
	default:
		return nil, d.syntaxErr()
	}
	if d.peek() == '.' {
		d.off++
		if !d.digits() {
			return nil, d.syntaxErr()
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.off++
		if c := d.peek(); c == '+' || c == '-' {
			d.off++
		}
		if !d.digits() {
			return nil, d.syntaxErr()
		}
	}
	return d.data[start:d.off], nil
}

// digits consumes a run of decimal digits and reports whether there was one.
func (d *reqDecoder) digits() bool {
	start := d.off
	for d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9' {
		d.off++
	}
	return d.off > start
}

// literal consumes the literal word (true, false or null).
func (d *reqDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.off] != word[i] {
			return d.syntaxErr()
		}
		d.off++
	}
	return nil
}

func (d *reqDecoder) skipSpace() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at the cursor, 0 at the end of the input (never a
// byte that starts or continues a value).
func (d *reqDecoder) peek() byte {
	if d.off == len(d.data) {
		return 0
	}
	return d.data[d.off]
}

// syntaxErr reports the byte at the cursor, or truncation at the end.
func (d *reqDecoder) syntaxErr() error { return d.syntaxErrAt(d.off) }

func (d *reqDecoder) syntaxErrAt(i int) error {
	if i >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", d.data[i], i)
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation, in 'e' form below 1e-6 and from 1e21 on (with e-07
// trimmed to e-7). It reports false for NaN and ±Inf, which JSON cannot
// carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes it with HTML
// escaping off: '"' and '\\' and control bytes escaped (\b \f \n \r \t by
// name), each invalid UTF-8 byte as \ufffd, and U+2028 and U+2029 as
// \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
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
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// errNotFinite is encoding/json's refusal of a NaN or infinite number.
func errNotFinite(f float64) error {
	return errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
}

// appendEstimateFields appends the four members of an Estimate, without
// braces.
func appendEstimateFields(b []byte, e deepdb.Estimate) ([]byte, error) {
	for _, m := range [...]struct {
		name string
		v    float64
	}{{`"value":`, e.Value}, {`,"variance":`, e.Variance}, {`,"ci_low":`, e.CILow}, {`,"ci_high":`, e.CIHigh}} {
		var ok bool
		if b, ok = appendFloat(append(b, m.name...), m.v); !ok {
			return b, errNotFinite(m.v)
		}
	}
	return b, nil
}

// appendEstimate appends the /estimate answer: the Estimate's members, then
// elapsed_us, then the newline json.Encoder ends a value with.
func appendEstimate(b []byte, e deepdb.Estimate, elapsedUS int64) ([]byte, error) {
	b, err := appendEstimateFields(append(b, '{'), e)
	if err != nil {
		return b, err
	}
	b = strconv.AppendInt(append(b, `,"elapsed_us":`...), elapsedUS, 10)
	return append(b, '}', '\n'), nil
}

// appendGroup appends one /query row: key and labels (each left out when
// empty), then the estimate's members.
func appendGroup(b []byte, g deepdb.Group) ([]byte, error) {
	b = append(b, '{')
	if len(g.Key) > 0 {
		b = append(b, `"key":[`...)
		for i, k := range g.Key {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendFloat(b, k); !ok {
				return b, errNotFinite(k)
			}
		}
		b = append(b, "],"...)
	}
	if len(g.Labels) > 0 {
		b = append(b, `"labels":[`...)
		for i, l := range g.Labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, l)
		}
		b = append(b, "],"...)
	}
	b, err := appendEstimateFields(b, g.Estimate)
	return append(b, '}'), err
}
