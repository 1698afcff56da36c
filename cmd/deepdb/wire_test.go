package main

// wire_test.go holds the hand-framed codec to encoding/json, which stays
// only as this reference: FuzzDecodeRequest compares what the decoder
// accepts and yields with json.Decoder, FuzzEncodeWire the appended bytes
// with json.Encoder (SetEscapeHTML(false)). Their seeds, written below, run
// under plain `go test`; `go test -fuzz` explores from them.

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/deepdb"
)

// decodeSeeds are request bodies at the edges of what encoding/json
// accepts.
func decodeSeeds() []string {
	seeds := []string{
		`{"sql": "SELECT COUNT(*) FROM customer"}`,
		`{"sql":"SELECT COUNT(*) FROM t WHERE a \u003c ?","params":[40,"EU"],"confidence":0.9}`,
		`
{"sql":"x"} trailing garbage`,
		`{"sql":"x"}{"sql":"y"}`,
		`{}`, `null`, `nul`, `nullx`, `true`, `[]`, `"x"`, `1`, ``, `   `, `{`, `{"sql"`, `{"sql":`, `{"sql":"x"`, `{"sql":"x",}`,
		`{,}`, `{"sql" "x"}`, `{"sql":"x" "params":[]}`, `{'sql':"x"}`, "\xef\xbb\xbf{\"sql\":\"x\"}",
		// Member names: exact, folded, ſ and K fold, near misses.
		`{"SQL":"x","PARAMS":[1],"CONFIDENCE":0.5}`, `{"Sql":"x","pArAmS":[1],"ConFidence":0.5}`,
		`{"ſql":"x","paramſ":[2]}`, "{\"s\\u0071l\":\"x\"}", `{"sq":"x"}`, `{"sqll":"x"}`, `{"sql ":"x"}`,
		"{\"s\xffql\":\"x\"}", `{"ıql":"x","İ":1}`, `{"confıdence":0.5,"sql":"x"}`, `{"K":1,"sql":"x"}`,
		// Duplicates and null members.
		`{"sql":"a","sql":"b"}`, `{"sql":"a","sql":null}`, `{"confidence":0.5,"confidence":null,"sql":"x"}`,
		`{"params":[1,2,3],"params":[4],"sql":"x"}`, `{"params":[1],"params":null,"sql":"x"}`, `{"params":[1],"params":[],"sql":"x"}`,
		`{"sql":"x","SQL":"y","Sql":"z"}`,
		// Type errors.
		`{"sql":1}`, `{"sql":true}`, `{"sql":["x"]}`, `{"sql":{"a":1}}`, `{"params":"x","sql":"x"}`, `{"params":{},"sql":"x"}`,
		`{"params":1,"sql":"x"}`, `{"confidence":"0.5","sql":"x"}`, `{"confidence":true,"sql":"x"}`, `{"confidence":[],"sql":"x"}`,
		`{"confidence":1e400,"sql":"x"}`, `{"params":[1e400],"sql":"x"}`, `{"params":[{"a":1e999}],"sql":"x"}`,
		// Params of every kind, nested.
		`{"sql":"x","params":[null,true,false,"s",-0,1.5e-3,{"a":[1,{"b":null}],"a":2},[[]],{}]}`,
		`{"sql":"x","params":[ 1 , 2 ]}`, `{"sql":"x","params":[1,]}`, `{"sql":"x","params":[,1]}`,
		// Unknown members are checked, not decoded: a number out of
		// float64's range is no error there.
		`{"sql":"x","extra":{"deep":[1,2,{"x":"y"}],"n":-1.5E+3}}`, `{"sql":"x","extra":[1e400,{"a":-1e999}]}`, `{"sql":"x","extra":[1,}`, `{"sql":"x","extra":tru}`,
		// Numbers.
		`{"sql":"x","confidence":-0}`, `{"sql":"x","confidence":0.0}`, `{"sql":"x","confidence":1e-400}`,
		`{"sql":"x","confidence":01}`, `{"sql":"x","confidence":1.}`, `{"sql":"x","confidence":.5}`, `{"sql":"x","confidence":-}`,
		`{"sql":"x","confidence":+1}`, `{"sql":"x","confidence":1e}`, `{"sql":"x","confidence":1E+2}`, `{"sql":"x","confidence":1e-2}`,
		`{"sql":"x","confidence":0.99999999999999999999}`, `{"sql":"x","confidence":NaN}`, `{"sql":"x","confidence":0x10}`,
		// Strings: escapes, surrogates, control bytes, invalid UTF-8.
		`{"sql":"a\"b\\c\/d\b\f\n\r\t"}`, `{"sql":"\u00e9\u2028\ud83d\ude00"}`, `{"sql":"\ud83d"}`, `{"sql":"\ude00\ud83d"}`,
		`{"sql":"\ud83dx"}`, `{"sql":"\ud83d\u0041"}`, `{"sql":"\ud83d\ud83d\ude00"}`, `{"sql":"\u00"}`, `{"sql":"\u00zz"}`,
		`{"sql":"\x"}`, `{"sql":"\'"}`, "{\"sql\":\"a\tb\"}", "{\"sql\":\"a\x00b\"}", "{\"sql\":\"\x7f\"}",
		"{\"sql\":\"\xff\xfe\"}", "{\"sql\":\"\xe2\x80\"}", "{\"sql\":\"\xed\xa0\x80\"}", "{\"sql\":\"ok\xc3\xa9\xff\\n\"}",
		"{\"sql\":\"\xf0\x9f\x98\x80 \xef\xbf\xbd\"}", `{"sql":"\\u0041"}`, `{"sql":"\u0000"}`,
	}
	// encoding/json's nesting bound: 10000 levels decode, 10001 do not.
	for _, depth := range []int{maxNestingDepth, maxNestingDepth + 1} {
		inner := depth - 2 // the request object and params are two levels
		seeds = append(seeds, `{"sql":"x","params":[`+strings.Repeat("[", inner)+strings.Repeat("]", inner)+`]}`)
		seeds = append(seeds, `{"sql":"x","extra":[`+strings.Repeat(`{"a":`, inner)+`1`+strings.Repeat("}", inner)+`]}`)
	}
	return seeds
}

func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var want apiRequest
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		// A full slice expression: the decoder may unescape into spare
		// capacity, which the fuzzer's input does not give up.
		got, err := decodeAPIRequest(data[:len(data):len(data)])
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: decoder error %v, encoding/json error %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) || math.Float64bits(got.Confidence) != math.Float64bits(want.Confidence) {
			t.Fatalf("%q: decoded\n %#v\nencoding/json\n %#v", data, got, want)
		}
	})
}

// TestDecodeRequestReusesScratch: strings unescaped into the caller's
// spare capacity come out right when several share it.
func TestDecodeRequestReusesScratch(t *testing.T) {
	body := []byte(`{"\u0073ql":"a \u003c 1","params":["\u00e9","\n"],"confidence":0.5}`)
	buf := make([]byte, len(body), len(body)+8) // room for some, not all
	copy(buf, body)
	got, err := decodeAPIRequest(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := apiRequest{SQL: "a < 1", Params: []any{"é", "\n"}, Confidence: 0.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %#v, want %#v", got, want)
	}
}

// encodeSeed is one FuzzEncodeWire input.
type encodeSeed struct {
	v, variance, lo, hi, key float64
	label                    string
	shape                    uint8
}

func encodeSeeds() []encodeSeed {
	negZero := math.Copysign(0, -1)
	floats := []float64{
		0, negZero, 1, -1, 0.1, 1849.9999999999998, 33.346245703526996,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e22, 1.2345e25, math.MaxFloat64,
		5e-324, math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	labels := []string{
		"", "EU", `a"b`, `back\slash`, "<tag>&amp;", "\x00\x01\x1f\b\f\n\r\t\x7f", "é😀", "\u2028\u2029",
		"\xff", "a\xe2\x80", "\xed\xa0\x80", "\ufffd", "mixed \"\xff\u2028\n end",
	}
	var seeds []encodeSeed
	for i, f := range floats {
		seeds = append(seeds, encodeSeed{f, 1, f, 2, f, labels[i%len(labels)], uint8(i)})
	}
	for i, l := range labels {
		seeds = append(seeds, encodeSeed{1, 2, 3, 4, float64(i), l, 3})
	}
	return seeds
}

// jsonRef is encoding/json's rendering of v as the server's old writer
// produced it, without the newline when trim.
func jsonRef(v any, trim bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	if trim {
		return bytes.TrimSuffix(buf.Bytes(), []byte("\n")), nil
	}
	return buf.Bytes(), nil
}

// sameWire fails t unless got equals encoding/json's want, errors
// included.
func sameWire(t *testing.T, what string, got []byte, err error, want []byte, wantErr error) {
	t.Helper()
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, err, wantErr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got  %q\n want %q", what, got, want)
	}
}

func FuzzEncodeWire(f *testing.F) {
	for _, s := range encodeSeeds() {
		f.Add(s.v, s.variance, s.lo, s.hi, s.key, s.label, s.shape)
	}
	f.Fuzz(func(t *testing.T, v, variance, lo, hi, key float64, label string, shape uint8) {
		est := deepdb.Estimate{Value: v, Variance: variance, CILow: lo, CIHigh: hi}
		elapsed := int64(shape) * 1000

		got, err := appendEstimate([]byte("prefix"), est, elapsed)
		want, wantErr := jsonRef(struct {
			deepdb.Estimate
			ElapsedUS int64 `json:"elapsed_us"`
		}{est, elapsed}, false)
		if err == nil {
			got = got[len("prefix"):]
		}
		sameWire(t, "estimate", got, err, want, wantErr)

		g := deepdb.Group{Estimate: est}
		switch shape % 4 {
		case 1:
			g.Key, g.Labels = []float64{key}, []string{label}
		case 2:
			g.Key, g.Labels = []float64{key, v, 0}, []string{label, "", label + label}
		case 3: // empty but not nil: left out like nil
			g.Key, g.Labels = []float64{}, []string{}
		}
		got, err = appendGroup(nil, g)
		want, wantErr = jsonRef(g, true)
		sameWire(t, "group", got, err, want, wantErr)

		want, wantErr = jsonRef(label, true)
		sameWire(t, "string", appendString(nil, label), nil, want, wantErr)
	})
}
