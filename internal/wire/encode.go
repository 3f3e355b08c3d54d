package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"sync"

	"repro/internal/graph"
)

// AppendFloat appends f exactly as json.Marshal renders a float64: the
// shortest representation in 'f' format, or 'e' format below 1e-6 or at
// and above 1e21 with a one-digit negative exponent written e-7, not
// e-07. ok is false for NaN and ±Inf, which JSON cannot represent.
func AppendFloat(b []byte, f float64) (_ []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
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

// Encoder renders one JSON document into a pooled Buffer. Callers write
// the punctuation and keys themselves (Raw) and the values through the
// typed methods; the first value JSON cannot represent is kept in Err and
// the document must then be discarded.
type Encoder struct {
	buf    []byte
	err    error
	pooled *Buffer
}

var encoderPool = sync.Pool{New: func() any { return new(Encoder) }}

// NewEncoder returns an empty encoder over a pooled buffer; Release
// returns both.
func NewEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.pooled = getBuffer()
	e.buf = e.pooled.B[:0]
	return e
}

// Release returns the encoder and its buffer to their pools. The bytes
// from Bytes must not be used afterwards.
func (e *Encoder) Release() {
	e.pooled.B = e.buf
	e.pooled.Release()
	e.buf, e.err, e.pooled = nil, nil, nil
	encoderPool.Put(e)
}

// Bytes returns the document rendered so far.
func (e *Encoder) Bytes() []byte { return e.buf }

// Err returns the first encoding failure, if any.
func (e *Encoder) Err() error { return e.err }

// Reset discards the document and any failure, keeping the buffer.
func (e *Encoder) Reset() {
	e.buf, e.err = e.buf[:0], nil
}

// Raw appends literal JSON text (punctuation and quoted keys).
func (e *Encoder) Raw(s string) { e.buf = append(e.buf, s...) }

// RawBytes appends JSON already rendered elsewhere, such as a value an
// earlier Encoder produced and the caller kept.
func (e *Encoder) RawBytes(b []byte) { e.buf = append(e.buf, b...) }

// Int appends an integer.
func (e *Encoder) Int(v int) { e.buf = strconv.AppendInt(e.buf, int64(v), 10) }

// Bool appends true or false.
func (e *Encoder) Bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// Float appends a float64 as json.Marshal does.
func (e *Encoder) Float(f float64) {
	var ok bool
	if e.buf, ok = AppendFloat(e.buf, f); !ok && e.err == nil {
		e.err = fmt.Errorf("wire: unsupported value %v", f)
	}
}

// String appends a JSON string as json.Marshal does (HTML-safe escaping).
func (e *Encoder) String(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			e.JSON(s)
			return
		}
	}
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, '"')
}

// JSON appends v through json.Marshal, for the small nested blocks that
// are not worth a hand encoder.
func (e *Encoder) JSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		if e.err == nil {
			e.err = err
		}
		return
	}
	e.buf = append(e.buf, b...)
}

// Floats appends a float array; nil renders as null, as json.Marshal
// renders a nil slice.
func (e *Encoder) Floats(x []float64) {
	if x == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, f := range x {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.Float(f)
	}
	e.buf = append(e.buf, ']')
}

// Ints appends an integer array; nil renders as null.
func (e *Encoder) Ints(x []int) {
	if x == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, v := range x {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	}
	e.buf = append(e.buf, ']')
}

// Edges appends edges as [u,v,w] triples, the bytes json.Marshal gives
// for [][3]float64{{float64(u), float64(v), w}, ...} (an integer-valued
// float64 below 1e21 renders as its integer digits); nil renders as null.
func (e *Encoder) Edges(edges []graph.Edge) {
	if edges == nil {
		e.Raw("null")
		return
	}
	e.buf = append(e.buf, '[')
	for i, ed := range edges {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.buf = append(e.buf, '[')
		e.buf = strconv.AppendInt(e.buf, int64(ed.U), 10)
		e.buf = append(e.buf, ',')
		e.buf = strconv.AppendInt(e.buf, int64(ed.V), 10)
		e.buf = append(e.buf, ',')
		e.Float(ed.W)
		e.buf = append(e.buf, ']')
	}
	e.buf = append(e.buf, ']')
}
