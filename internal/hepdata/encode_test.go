package hepdata

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

// marshalIndentRecord is the reflection encoder AppendRecord replaced: the
// definition of the canonical form, kept as the reference.
func marshalIndentRecord(r *Record) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// checkAgainstReference demands AppendRecord and the reference agree: the
// same bytes, or the same failure.
func checkAgainstReference(t *testing.T, r *Record) {
	t.Helper()
	want, werr := marshalIndentRecord(r)
	prefix := []byte("kept:")
	got, gerr := AppendRecord(prefix, r)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("reference error %v, AppendRecord error %v", werr, gerr)
	}
	if werr != nil {
		if werr.Error() != gerr.Error() {
			t.Fatalf("reference fails with %q, AppendRecord with %q", werr, gerr)
		}
		if !bytes.Equal(got, prefix) {
			t.Fatalf("a failed AppendRecord returned %q, want dst back", got)
		}
		return
	}
	if !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendRecord dropped dst: %q", got[:min(len(got), 16)])
	}
	if got = got[len(prefix):]; !bytes.Equal(got, want) {
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		t.Fatalf("encodings differ at byte %d:\n got %q\nwant %q", at,
			got[max(0, at-40):min(len(got), at+40)], want[max(0, at-40):min(len(want), at+40)])
	}
}

// Strings that take every branch of the escaper. LINE SEPARATOR and
// PARAGRAPH SEPARATOR are spelled in bytes so no editor can normalise them.
var awkwardStrings = []string{
	"", "plain", `a<b>&c "q" back\slash`, "\xe2\x80\xa8 and \xe2\x80\xa9", "bad \xff\xfe utf8 \xc3", "\xe2\x80",
	"\x00\x01\a\b\t\n\v\f\r\x1b\x1f\x7f", "\xc3\xa9 \xe6\x97\xa5 \xf0\x9f\x98\x80", "\xef\xbf\xbd", "\xed\xa0\x80",
}

var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 5e-324, 2.2250738585072014e-308, 1e-7, 9.999999e-7, 1e-6,
	1e20, 1e21, 1.5e21, 1e-9, 1e-10, 1e100, math.MaxFloat64, -math.MaxFloat64, 123456789.125,
}

func TestAppendRecordMatchesMarshalIndent(t *testing.T) {
	for _, s := range awkwardStrings {
		for _, f := range awkwardFloats {
			checkAgainstReference(t, &Record{
				InspireID: s, Title: s, Collaboration: s, Year: int(int32(math.Float64bits(f))), Abstract: s,
				Tables: []Table{{
					Name: s, Description: s, XHeader: s, YHeader: s, Reactions: []string{s, s}, Observables: []string{s},
					Points: []Point{{X: f, XLo: -f, XHi: f, Y: f, Errors: []Uncertainty{{Label: s, Plus: f, Minus: -f}, {}}}, {}},
				}, {}},
				Aux: map[string][]byte{s: []byte(s), s + "2": nil, "a" + s: {}},
			})
		}
	}
	// nil and empty differ where the field is not omitempty, and only there.
	checkAgainstReference(t, &Record{})
	checkAgainstReference(t, &Record{Tables: []Table{}, Aux: map[string][]byte{}})
	checkAgainstReference(t, &Record{Tables: []Table{{Points: []Point{}, Reactions: []string{}, Observables: []string{}}}})
	checkAgainstReference(t, &Record{Tables: []Table{{Points: []Point{{Errors: []Uncertainty{}}}}}})
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAgainstReference(t, &Record{Tables: []Table{{Points: []Point{{Y: bad}}}}})
		checkAgainstReference(t, &Record{Tables: []Table{{Points: []Point{{Errors: []Uncertainty{{Minus: bad}}}}}}})
	}
	if _, err := EncodeRecord(&Record{}); err == nil {
		t.Fatal("EncodeRecord encoded a record that does not validate")
	}
}

// TestValidateRefusesWhatCannotEncode: a publish archives a record before
// it encodes it, so every record AppendRecord refuses must fail Validate.
// The encoder's one error is a non-finite number; each float64 a valid
// record holds, found by reflection so a new field is covered too, is set
// to NaN and to each infinity in turn.
func TestValidateRefusesWhatCannotEncode(t *testing.T) {
	r := goldenRecord(t, "typical")
	var floats []reflect.Value
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Float64:
			floats = append(floats, v)
		case reflect.Struct:
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice:
			for i := range v.Len() {
				walk(v.Index(i))
			}
		}
	}
	walk(reflect.ValueOf(r).Elem())
	if len(floats) == 0 {
		t.Fatal("the typical record holds no float")
	}
	for _, v := range floats {
		was := v.Float()
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			v.SetFloat(bad)
			if _, err := AppendRecord(nil, r); err == nil {
				t.Fatalf("AppendRecord encoded %v", bad)
			}
			if err := r.Validate(); err == nil {
				t.Fatalf("Validate accepts a record holding %v, which AppendRecord refuses", bad)
			}
		}
		v.SetFloat(was)
	}
	if _, err := AppendRecord(nil, r); err != nil {
		t.Fatal(err)
	}
}

// FuzzAppendRecordMatchesMarshalIndent builds a record from fuzzed strings,
// numbers and bytes — shape picks nil, empty or filled for every slice and
// map, and a point's second error component is (f1, f2), symmetric when
// the two are equal — and demands the direct encoder and encoding/json
// agree on every byte, or fail alike (NaN and the infinities).
func FuzzAppendRecordMatchesMarshalIndent(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, awkwardStrings[(i+3)%len(awkwardStrings)], awkwardFloats[i%len(awkwardFloats)], awkwardFloats[(i*5+1)%len(awkwardFloats)], []byte(s), i, uint16(i*37))
	}
	f.Add("nan", "inf", math.NaN(), math.Inf(-1), []byte{0xff}, -3, uint16(0xffff))
	f.Add("x", "y", 1.0, math.Inf(1), []byte(nil), 2013, uint16(0x0fff))
	// The edges of the whole-number fast path: both zeros, ±1, the largest
	// whole numbers it takes, the first it leaves to strconv, 2^53, 2^54+8
	// (whose shortest decimal, 18014398509481990, is not its digits), a
	// whole number in 'f' form far past it, a fraction in exponent form,
	// and values one ulp off a whole number. shape gives every list one
	// element.
	wholeEdges := []float64{
		math.Copysign(0, -1), 0, 1, -1, 1e15 - 1, -(1e15 - 1), 1e15, 1 << 53, 1<<54 + 8, 1e20, 5e-7,
		math.Nextafter(1e15-1, 0), math.Nextafter(3, 4),
	}
	for i, v := range wholeEdges {
		f.Add("w", "", v, wholeEdges[(i+1)%len(wholeEdges)], []byte(nil), i, uint16(0xaaaa))
	}
	// A point's second error component is (f1, f2): these give it the two
	// zeros either way round, which must not share a text, and equal
	// values on each branch a shared text comes from — a subnormal, the
	// exponent form, the whole-number fast path's last value and a 'f'
	// form. shape gives the first table's lists two elements each.
	negZero := math.Copysign(0, -1)
	for _, pm := range [][2]float64{{0, negZero}, {negZero, 0}, {5e-324, 5e-324}, {1e21, 1e21}, {1e15 - 1, 1e15 - 1}, {0.1, 0.1}} {
		f.Add("sym", "", pm[0], pm[1], []byte(nil), 0, uint16(0xffff))
	}
	f.Fuzz(func(t *testing.T, s1, s2 string, f1, f2 float64, aux []byte, year int, shape uint16) {
		// pick reads the next two bits of shape: 0 nil, 1 empty, 2-3 that many elements.
		pick := func() int {
			v := int(shape & 3)
			shape >>= 2
			return v - 1
		}
		strs := func() []string {
			if n := pick(); n >= 0 {
				return []string{s1, s2, s1 + s2}[:n]
			}
			return nil
		}
		r := &Record{InspireID: s1, Title: s2, Collaboration: s1 + s2, Year: year, Abstract: s2}
		if n := pick(); n >= 0 {
			r.Tables = make([]Table, n)
		}
		for i := range r.Tables {
			tab := &r.Tables[i]
			tab.Name, tab.Description, tab.XHeader, tab.YHeader = s2, s1, s1, s2
			tab.Reactions, tab.Observables = strs(), strs()
			if n := pick(); n >= 0 {
				tab.Points = make([]Point, n)
			}
			for j := range tab.Points {
				p := &tab.Points[j]
				p.X, p.XLo, p.XHi, p.Y = f1, f2, -f1, f1*f2
				if n := pick(); n >= 0 {
					p.Errors = make([]Uncertainty, n)
				}
				for k := range p.Errors {
					p.Errors[k] = Uncertainty{Label: s1, Plus: f2, Minus: f1 / 3}
				}
				if len(p.Errors) > 1 {
					p.Errors[1] = Uncertainty{Label: s2, Plus: f1, Minus: f2}
				}
			}
		}
		if n := pick(); n >= 0 {
			r.Aux = map[string][]byte{}
			for i, k := range []string{s2, s1, ""}[:n] {
				r.Aux[k] = [][]byte{aux, nil, {}}[(i+len(aux))%3]
			}
		}
		checkAgainstReference(t, r)
	})
}

// goldenRecord decodes one committed canonical body.
func goldenRecord(tb testing.TB, name string) *Record {
	tb.Helper()
	data, err := os.ReadFile("testdata/canonical/" + name + ".json")
	if err != nil {
		tb.Fatal(err)
	}
	r, err := DecodeRecord(data)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

func BenchmarkAppendRecord(b *testing.B) {
	r := goldenRecord(b, "corpus")
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendRecord(buf[:0], r)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkMarshalIndentReference(b *testing.B) {
	r := goldenRecord(b, "corpus")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ := marshalIndentRecord(r)
		b.SetBytes(int64(len(buf)))
	}
}
