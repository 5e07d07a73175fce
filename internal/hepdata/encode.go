package hepdata

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"reflect"
	"sort"
	"strconv"
	"unicode/utf8"
)

// The canonical record encoding is what record ETags digest and record
// GETs serve, so it is frozen: byte for byte what encoding/json's
// indenting marshaller writes for a Record at a two-space indent — struct
// fields in declaration order, omitempty as tagged, HTML-safe string escaping,
// shortest round-trip floats, aux keys sorted with base64 values.
// AppendRecord writes that form directly in one pass; the reflection
// encoder it replaced is the fuzz reference in encode_test.go, and
// testdata/canonical pins bodies and ETags generated before the switch.

// EncodeRecord serializes a record as submission JSON.
func EncodeRecord(r *Record) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return AppendRecord(nil, r)
}

// AppendRecord appends the canonical encoding of r to dst. It does not
// validate the record. Its one error is a NaN or infinite number, which
// fails with the *json.UnsupportedValueError encoding/json reports and
// returns dst unextended; Record.Validate refuses every such record
// (TestValidateRefusesWhatCannotEncode), so a record that validates
// always encodes.
func AppendRecord(dst []byte, r *Record) ([]byte, error) {
	e := encoder{buf: dst}
	e.record(r)
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

// encoder carries the output and the first unencodable number. Every
// literal below spells out its own newline and indentation, so nesting
// depth lives in the text, not in a counter.
type encoder struct {
	buf []byte
	err error
}

func (e *encoder) lit(s string) { e.buf = append(e.buf, s...) }

func (e *encoder) record(r *Record) {
	e.lit("{\n  \"inspire_id\": ")
	e.str(r.InspireID)
	e.lit(",\n  \"title\": ")
	e.str(r.Title)
	e.lit(",\n  \"collaboration\": ")
	e.str(r.Collaboration)
	e.lit(",\n  \"year\": ")
	e.buf = strconv.AppendInt(e.buf, int64(r.Year), 10)
	if r.Abstract != "" {
		e.lit(",\n  \"abstract\": ")
		e.str(r.Abstract)
	}
	e.lit(",\n  \"tables\": ")
	switch {
	case r.Tables == nil:
		e.lit("null")
	case len(r.Tables) == 0:
		e.lit("[]")
	default:
		for i := range r.Tables {
			e.lit(sep(i, "[\n    {", ",\n    {"))
			e.table(&r.Tables[i])
			e.lit("\n    }")
		}
		e.lit("\n  ]")
	}
	if len(r.Aux) > 0 {
		keys := make([]string, 0, len(r.Aux))
		for k := range r.Aux {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			e.lit(sep(i, ",\n  \"aux\": {\n    ", ",\n    "))
			e.str(k)
			e.lit(": ")
			if v := r.Aux[k]; v == nil {
				e.lit("null")
			} else {
				e.lit(`"`)
				e.buf = base64.StdEncoding.AppendEncode(e.buf, v)
				e.lit(`"`)
			}
		}
		e.lit("\n  }")
	}
	e.lit("\n}")
}

func (e *encoder) table(t *Table) {
	e.lit("\n      \"name\": ")
	e.str(t.Name)
	if t.Description != "" {
		e.lit(",\n      \"description\": ")
		e.str(t.Description)
	}
	e.lit(",\n      \"x_header\": ")
	e.str(t.XHeader)
	e.lit(",\n      \"y_header\": ")
	e.str(t.YHeader)
	e.strings(",\n      \"reactions\": [\n        ", t.Reactions)
	e.strings(",\n      \"observables\": [\n        ", t.Observables)
	e.lit(",\n      \"points\": ")
	switch {
	case t.Points == nil:
		e.lit("null")
	case len(t.Points) == 0:
		e.lit("[]")
	default:
		for i := range t.Points {
			e.lit(sep(i, "[\n        {", ",\n        {"))
			e.point(&t.Points[i])
			e.lit("\n        }")
		}
		e.lit("\n      ]")
	}
}

// strings writes an omitempty string list of a table.
func (e *encoder) strings(open string, list []string) {
	if len(list) == 0 {
		return
	}
	for i, s := range list {
		e.lit(sep(i, open, ",\n        "))
		e.str(s)
	}
	e.lit("\n      ]")
}

func (e *encoder) point(p *Point) {
	e.lit("\n          \"x\": ")
	e.float(p.X)
	e.lit(",\n          \"x_lo\": ")
	e.float(p.XLo)
	e.lit(",\n          \"x_hi\": ")
	e.float(p.XHi)
	e.lit(",\n          \"y\": ")
	e.float(p.Y)
	for i := range p.Errors {
		u := &p.Errors[i]
		e.lit(sep(i, ",\n          \"errors\": [\n            {", ",\n            {"))
		e.lit("\n              \"label\": ")
		e.str(u.Label)
		e.lit(",\n              \"plus\": ")
		at := len(e.buf)
		e.float(u.Plus)
		plus := len(e.buf)
		e.lit(",\n              \"minus\": ")
		// A symmetric error writes the text its plus just got: the same
		// bits format the same, so the second digit search is skipped.
		// +0 and −0 differ in their bits and are written apart.
		if math.Float64bits(u.Minus) == math.Float64bits(u.Plus) {
			e.buf = append(e.buf, e.buf[at:plus]...)
		} else {
			e.float(u.Minus)
		}
		e.lit("\n            }")
	}
	if len(p.Errors) > 0 {
		e.lit("\n          ]")
	}
}

// sep picks the opening text of a list's first element or the separator
// before a later one.
func sep(i int, first, later string) string {
	if i == 0 {
		return first
	}
	return later
}

// float writes a number the way encoding/json does: the shortest decimal
// that round-trips, in exponent form below 1e-6 and from 1e21 up, with a
// one-digit exponent unpadded. Every number the whole-number path below
// does not take goes to the float kernel, appendShortest.
func (e *encoder) float(f float64) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	// A whole number below 1e15 is exact in an int64, and its shortest
	// round-trip decimal is its integer digits: the ulp there is at most
	// 1/8, so no shorter string rounds back to it. -0 keeps its sign.
	// Converting through int64 tests wholeness without math.Trunc's call;
	// the conversion of a larger f yields some value, never used.
	if i := int64(f); math.Abs(f) < 1e15 && float64(i) == f && (f != 0 || !math.Signbit(f)) {
		e.buf = strconv.AppendInt(e.buf, i, 10)
		return
	}
	e.buf = appendShortest(e.buf, f)
}

const hexDigits = "0123456789abcdef"

// str writes a JSON string with encoding/json's default escaping: quote,
// backslash and control bytes, the HTML-sensitive <, > and &, U+2028 and
// U+2029, and U+FFFD for each byte of invalid UTF-8.
func (e *encoder) str(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029: // LINE and PARAGRAPH SEPARATOR
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
	e.buf = append(b, '"')
}
