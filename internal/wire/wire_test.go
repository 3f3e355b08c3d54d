package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
)

// floatSeeds are the float64 values where json.Marshal's rendering
// changes shape: signed zeros, the 'f'/'e' switch points at 1e-6 and
// 1e21, the smallest and largest normals, subnormals, and non-finites.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3,
	1e-6, 1e-7, 9.99999e-7, 1.5e-7, 1e-10, 1.234e-300,
	1e20, 1e21, 9.99999999999e20, 1.5e21, 1e300, -1e21,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 2.2250738585072014e-308, 4e-320,
	123456789012345678, 0.08, 46.06,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

func checkFloat(t *testing.T, f float64) {
	t.Helper()
	got, ok := AppendFloat(nil, f)
	want, err := json.Marshal(f)
	if ok != (err == nil) {
		t.Fatalf("%v (bits %#x): AppendFloat ok=%v, json.Marshal err=%v", f, math.Float64bits(f), ok, err)
	}
	if ok && !bytes.Equal(got, want) {
		t.Fatalf("%v (bits %#x): AppendFloat %q, json.Marshal %q", f, math.Float64bits(f), got, want)
	}
}

func TestAppendFloatMatchesMarshal(t *testing.T) {
	for _, f := range floatSeeds {
		checkFloat(t, f)
		checkFloat(t, -f)
	}
}

// FuzzAppendFloat holds AppendFloat to json.Marshal's bytes over
// arbitrary float64 bit patterns.
func FuzzAppendFloat(f *testing.F) {
	for _, v := range floatSeeds {
		f.Add(math.Float64bits(v))
	}
	f.Add(uint64(1))                  // smallest subnormal
	f.Add(uint64(0x000fffffffffffff)) // largest subnormal
	f.Add(uint64(0x7ff8000000000001)) // a NaN payload
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkFloat(t, math.Float64frombits(bits))
	})
}

// TestEncoderMatchesMarshal renders each array kind and string through
// the encoder and compares with json.Marshal of the same Go value.
func TestEncoderMatchesMarshal(t *testing.T) {
	e := NewEncoder()
	defer e.Release()
	check := func(name string, want any, render func()) {
		t.Helper()
		e.Reset()
		render()
		w, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if e.Err() != nil || !bytes.Equal(e.Bytes(), w) {
			t.Fatalf("%s: encoder %q (err %v), json.Marshal %q", name, e.Bytes(), e.Err(), w)
		}
	}
	x := []float64{0, -1.5, 1e-7, 3e21, 0.1}
	check("floats", x, func() { e.Floats(x) })
	check("nil floats", []float64(nil), func() { e.Floats(nil) })
	check("empty floats", []float64{}, func() { e.Floats([]float64{}) })
	ints := []int{0, -3, 1 << 40}
	check("ints", ints, func() { e.Ints(ints) })
	check("nil ints", []int(nil), func() { e.Ints(nil) })
	for _, s := range []string{"", "g9-9-00ff", `quo"te\`, "<a&b>", "tab\tnl\n\x01", "héllo ", "bad\xffutf8"} {
		check("string "+s, s, func() { e.String(s) })
	}

	e.Reset()
	e.Floats([]float64{1, math.NaN()})
	if e.Err() == nil {
		t.Fatal("NaN encoded without error")
	}
}

// TestDecodeStringsMatchUnmarshal compares string decoding (escapes,
// surrogate pairs, lone surrogates, invalid UTF-8) and key matching with
// encoding/json.
func TestDecodeStringsMatchUnmarshal(t *testing.T) {
	for _, lit := range []string{
		`"plain"`, `"a\"b\\c\/d\b\f\n\r\t"`, `"é中"`, `"😀"`,
		`"\ud83d"`, `"\ud83dx"`, `"\ude00\ud83d"`, `"\ud83dA"`, "\"\xff\xfe\"", "\"caf\xc3\xa9\"",
		`"Key"`, `"ſet"`,
	} {
		var want string
		if err := json.Unmarshal([]byte(lit), &want); err != nil {
			t.Fatalf("%s: %v", lit, err)
		}
		var got string
		if err := NewDecoder([]byte(lit)).String(&got); err != nil || got != want {
			t.Fatalf("%s: decoded %q (err %v), encoding/json %q", lit, got, err, want)
		}
	}
	// Key matching folds case as encoding/json does, including the
	// Unicode folds of k (Kelvin sign) and s (long s).
	for _, body := range []string{`{"KEY":"x"}`, `{"Key":"x"}`, `{"kEy":"x"}`, `{"Ke":"x"}`, `{"key ":"x"}`, `{"\u212aey":"x"}`, "{\"\u212aey\":\"x\"}", `{"\u006bey":"x"}`} {
		var want struct {
			Key string `json:"key"`
		}
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatal(err)
		}
		var got string
		d := NewDecoder([]byte(body))
		if err := d.Decode(func(key []byte) error {
			if Key(key, "key") {
				return d.String(&got)
			}
			return d.Skip()
		}); err != nil || got != want.Key {
			t.Fatalf("%s: matched %q (err %v), encoding/json %q", body, got, err, want.Key)
		}
	}
}

// TestDecodeAcceptsWhatDecoderAccepts runs documents through Skip-only
// decoding and json.Decoder into an empty struct: both must agree on
// acceptance (syntax, nesting depth, top-level rules).
func TestDecodeAcceptsWhatDecoderAccepts(t *testing.T) {
	deep := func(n int) string {
		return `{"a":` + strings.Repeat("[", n-1) + strings.Repeat("]", n-1) + `}`
	}
	for _, body := range []string{
		``, `  `, `null`, `null trailing`, `nul`, `nulx`, `{}`, `{} garbage`, `{"a":1}{`,
		`[]`, `1`, `"s"`, `true`, `{"a":}`, `{"a":1,}`, `{"a" 1}`, `{"a":1 "b":2}`, `{a:1}`,
		`{"a":[1,2,]}`, `{"a":01}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a":1e+}`, `{"a":.5}`,
		`{"a":+1}`, `{"a":1.5e-3}`, `{"a":-0}`, `{"a":"\x"}`, `{"a":"\u12"}`, "{\"a\":\"\x01\"}",
		`{"a":tru}`, `{"a":{"b":[null,true,false,{}]}}`, `{"a":"`, `{"a":[`, `{"a":1`, "\ufeff{}",
		deep(maxDepth), deep(maxDepth + 1),
	} {
		var v struct{}
		wantErr := json.NewDecoder(strings.NewReader(body)).Decode(&v) != nil
		d := NewDecoder([]byte(body))
		gotErr := d.Decode(func([]byte) error { return d.Skip() }) != nil
		if gotErr != wantErr {
			t.Errorf("%.40q: codec error=%v, encoding/json error=%v", body, gotErr, wantErr)
		}
	}
}

func TestReadBody(t *testing.T) {
	data := bytes.Repeat([]byte("0123456789"), 20000)
	for _, declared := range []int64{-1, 0, 10, int64(len(data)), int64(len(data)) + 5, 1 << 40} {
		b, err := ReadBody(iotest.HalfReader(bytes.NewReader(data)), declared, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.B, data) {
			t.Fatalf("declared %d: read %d bytes, want %d", declared, len(b.B), len(data))
		}
		if cap(b.B) > 4<<20 {
			t.Fatalf("declared %d: presized to %d bytes past the limit", declared, cap(b.B))
		}
		b.Release()
	}
	errRead := errors.New("boom")
	if _, err := ReadBody(io.MultiReader(bytes.NewReader(data), iotest.ErrReader(errRead)), -1, 1<<20); !errors.Is(err, errRead) {
		t.Fatalf("read error = %v, want %v", err, errRead)
	}
}

// TestPoolsConcurrent reads bodies and renders documents from several
// goroutines at once through the shared buffer pool; each must get back
// exactly its own bytes.
func TestPoolsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := bytes.Repeat([]byte{byte('a' + g)}, 1000*(g+1))
			for i := 0; i < 200; i++ {
				b, err := ReadBody(bytes.NewReader(want), int64(len(want)), 1<<20)
				if err != nil || !bytes.Equal(b.B, want) {
					t.Errorf("goroutine %d: body read back wrong (err %v)", g, err)
					return
				}
				b.Release()
				e := NewEncoder()
				e.Ints([]int{g, i})
				if got := string(e.Bytes()); got != fmt.Sprintf("[%d,%d]", g, i) {
					t.Errorf("goroutine %d: encoder rendered %q", g, got)
				}
				e.Release()
			}
		}()
	}
	wg.Wait()
}
