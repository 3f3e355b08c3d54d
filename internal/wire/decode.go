// Package wire is the service's hand-written JSON codec for its bulk
// arrays: edge lists, deltas, right-hand sides and vertex maps on the way
// in, sparsifier edges and solutions on the way out.
//
// The decoder is a byte scanner over a whole request body. It accepts
// exactly the documents json.Decoder.Decode accepts for the request
// structs it replaces, and it fills values with encoding/json's rules:
// keys match case-insensitively (bytes.EqualFold), unknown keys are
// validated and skipped, null leaves a number or struct unchanged and
// clears a slice or pointer, a repeated key decodes into the value the
// earlier one left (slices in place, element by element), a short inner
// array zeroes the remaining slots and a long one drops the extras, and
// the first JSON value ends the document (trailing bytes are ignored).
// The differential tests and fuzz targets next to each request decoder
// hold it to that contract, with encoding/json as the oracle.
//
// The encoder renders numbers byte-for-byte as json.Marshal does.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/graph"
)

// maxDepth is encoding/json's nesting limit: a document may nest arrays
// and objects this deep, counting the top-level object, and no deeper.
const maxDepth = 10000

// Decoder scans one JSON document held in memory. Methods decode the
// value at the cursor into a destination and leave the cursor after it.
// Decoded values never alias the input, so the caller may reuse the
// buffer once decoding is done.
type Decoder struct {
	data  []byte
	pos   int
	depth int
	key   []byte // scratch for unquoted object keys
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Key reports whether an object key names the field name, with
// encoding/json's case-insensitive match.
func Key(key []byte, name string) bool {
	return bytes.EqualFold(key, []byte(name))
}

// Decode decodes the document's first value as an object, calling member
// for each key; member must decode or Skip that key's value. As with
// json.Decoder.Decode into a struct, an empty document is io.EOF, a
// top-level null decodes nothing, and bytes after the first value are
// not read.
func (d *Decoder) Decode(member func(key []byte) error) error {
	d.ws()
	if d.pos == len(d.data) {
		return io.EOF
	}
	if d.data[d.pos] == 'n' {
		return d.literal("null")
	}
	if d.data[d.pos] != '{' {
		return d.typeErr("object")
	}
	return d.members(member)
}

// Skip validates and discards the value at the cursor.
func (d *Decoder) Skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.members(func([]byte) error { return d.Skip() })
	case c == '[':
		return d.elems(d.Skip)
	case c == '"':
		_, _, err := d.str()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	}
	return d.invalid("looking for beginning of value")
}

// JSON validates the value at the cursor and decodes it into v with
// json.Unmarshal, for the small fields that stay on encoding/json.
// Unmarshal into the field gives what the whole-document decode would
// have, repeated keys included.
func (d *Decoder) JSON(v any) error {
	d.ws()
	start := d.pos
	if err := d.Skip(); err != nil {
		return err
	}
	return json.Unmarshal(d.data[start:d.pos], v)
}

// Pointer decodes a pointer-to-struct field as encoding/json does: null
// sets *dst to nil; an object decodes into *dst, allocated if nil, with
// member called for each key.
func Pointer[T any](d *Decoder, dst **T, member func(v *T, d *Decoder, key []byte) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '{':
	default:
		return d.typeErr("object")
	}
	if *dst == nil {
		*dst = new(T)
	}
	v := *dst
	return d.members(func(key []byte) error { return member(v, d, key) })
}

// String decodes a string field; null leaves it unchanged.
func (d *Decoder) String(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
		raw, escaped, err := d.str()
		if err != nil {
			return err
		}
		if escaped {
			raw = unquote(nil, raw)
		}
		*dst = string(raw)
		return nil
	}
	return d.typeErr("string")
}

// Int decodes an integer field: a JSON number without fraction or
// exponent that fits in int64, as encoding/json requires of an int. Null
// leaves the field unchanged.
func (d *Decoder) Int(dst *int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	v, err := d.intValue()
	if err != nil {
		return err
	}
	*dst = int(v)
	return nil
}

// Int64 is Int for an int64 field.
func (d *Decoder) Int64(dst *int64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	v, err := d.intValue()
	if err != nil {
		return err
	}
	*dst = v
	return nil
}

// Float decodes a float64 field; null leaves it unchanged.
func (d *Decoder) Float(dst *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	f, err := d.floatValue()
	if err != nil {
		return err
	}
	*dst = f
	return nil
}

// Floats decodes a []float64 field in place.
func (d *Decoder) Floats(dst *[]float64) error {
	return decodeSlice(d, dst, nil, d.Float)
}

// FloatRows decodes a [][]float64 field in place (a null row clears it).
func (d *Decoder) FloatRows(dst *[][]float64) error {
	return decodeSlice(d, dst, nil, d.Floats)
}

// Ints decodes a []int field in place.
func (d *Decoder) Ints(dst *[]int) error {
	return decodeSlice(d, dst, nil, d.Int)
}

// decodeSlice decodes a JSON array into *dst with encoding/json's slice
// rules: null clears the slice; elements decode in place over whatever
// the slice already holds up to its capacity (a repeated key reuses the
// earlier value); a shorter array truncates, and an empty one replaces
// the slice with a new empty slice. reset, if non-nil, runs when that
// replacement drops the old backing array.
func decodeSlice[T any](d *Decoder, dst *[]T, reset func(), elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		if reset != nil {
			reset()
		}
		return nil
	case '[':
	default:
		return d.typeErr("array")
	}
	s := *dst
	i := 0
	err := d.elems(func() error {
		if i >= cap(s) {
			var zero T
			s = append(s, zero)
		} else if i >= len(s) {
			s = s[:i+1]
		}
		i++
		return elem(&s[i-1])
	})
	if err != nil {
		return err
	}
	s = s[:i]
	if i == 0 {
		s = []T{}
		if reset != nil {
			reset()
		}
	}
	*dst = s
	return nil
}

// Edges is a decoded JSON array of [u, v, w] triples (or [u, v] pairs).
// Endpoints travel as JSON numbers; one that is not an integer is kept
// aside instead of in the edge, and Check reports it, so a later
// repeated key can still overwrite it exactly as it overwrites a float in
// encoding/json.
type Edges struct {
	List []graph.Edge
	frac map[int]fracEnds
}

// fracEnds records which endpoints of one edge were non-integers, and
// their values.
type fracEnds struct {
	set [2]bool
	val [2]float64
}

// Check returns the first edge with a non-integer endpoint as
// "<what> i has non-integer endpoints [u, v]".
func (e *Edges) Check(what string) error {
	first := -1
	for i := range e.frac {
		if i < len(e.List) && (first < 0 || i < first) {
			first = i
		}
	}
	if first < 0 {
		return nil
	}
	fe := e.frac[first]
	ends := [2]float64{float64(e.List[first].U), float64(e.List[first].V)}
	for k := range ends {
		if fe.set[k] {
			ends[k] = fe.val[k]
		}
	}
	return fmt.Errorf("%s %d has non-integer endpoints [%g, %g]", what, first, ends[0], ends[1])
}

// setInt stores integer endpoint k of edge i, held at p, clearing any
// non-integer value an earlier repeated key left there.
func (e *Edges) setInt(p *graph.Edge, i, k, v int) {
	if k == 0 {
		p.U = v
	} else {
		p.V = v
	}
	if e.frac == nil {
		return
	}
	if fe, ok := e.frac[i]; ok {
		fe.set[k] = false
		if fe.set[0] || fe.set[1] {
			e.frac[i] = fe
		} else {
			delete(e.frac, i)
		}
	}
}

// setFloat stores endpoint k of edge i from a float: an integer value
// converts as the float-triple decode did (int(f)); any other is kept
// aside for Check.
func (e *Edges) setFloat(p *graph.Edge, i, k int, f float64) {
	if f == math.Trunc(f) {
		e.setInt(p, i, k, int(f))
		return
	}
	if e.frac == nil {
		e.frac = make(map[int]fracEnds)
	}
	fe := e.frac[i]
	fe.set[k], fe.val[k] = true, f
	e.frac[i] = fe
}

// Edges decodes an array of numeric tuples of the given width (3 for
// [u, v, w], 2 for [u, v]) into dst in place, as encoding/json decodes
// [][width]float64: a null tuple is left as it was, a short tuple zeroes
// its missing slots, extra slots are validated and dropped.
func (d *Decoder) Edges(dst *Edges, width int) error {
	i := 0
	return decodeSlice(d, &dst.List, func() { dst.frac = nil }, func(p *graph.Edge) error {
		i++
		return d.tuple(dst, p, i-1, width)
	})
}

// tuple decodes one [u, v, w] tuple into edge i, held at p.
func (d *Decoder) tuple(e *Edges, p *graph.Edge, i, width int) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("array")
	}
	k := 0
	if err := d.elems(func() error {
		k++
		return d.slot(e, p, i, k-1, width)
	}); err != nil {
		return err
	}
	for ; k < width; k++ {
		if k == 2 {
			p.W = 0
		} else {
			e.setInt(p, i, k, 0)
		}
	}
	return nil
}

// slot decodes slot k of a tuple: an endpoint (0, 1), the weight (2),
// or an extra slot past width, which is validated and dropped.
func (d *Decoder) slot(e *Edges, p *graph.Edge, i, k, width int) error {
	switch {
	case k >= width:
		return d.Skip()
	case k == 2:
		return d.Float(&p.W)
	case d.peek() == 'n':
		return d.literal("null")
	}
	if c := d.at(); c != '-' && (c < '0' || c > '9') {
		return d.typeErr("number")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	if v, ok := smallInt(tok); ok {
		e.setInt(p, i, k, int(v))
		return nil
	}
	f, err := parseFloat(tok)
	if err != nil {
		return err
	}
	e.setFloat(p, i, k, f)
	return nil
}

// intValue scans a number that must be an integer.
func (d *Decoder) intValue() (int64, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, d.typeErr("integer")
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	if v, ok := smallInt(tok); ok {
		return v, nil
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("wire: number %s is not an int64", tok)
	}
	return v, nil
}

// floatValue scans a number into a float64.
func (d *Decoder) floatValue() (float64, error) {
	if c := d.peek(); c != '-' && (c < '0' || c > '9') {
		return 0, d.typeErr("number")
	}
	tok, err := d.number()
	if err != nil {
		return 0, err
	}
	if v, ok := smallInt(tok); ok {
		if v == 0 && tok[0] == '-' {
			return math.Copysign(0, -1), nil
		}
		return float64(v), nil
	}
	return parseFloat(tok)
}

func parseFloat(tok []byte) (float64, error) {
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("wire: number %s is not a float64", tok)
	}
	return f, nil
}

// smallInt parses an integer token of at most 15 digits, which float64
// and int64 both hold exactly; ok is false for anything else.
func smallInt(tok []byte) (int64, bool) {
	digits := tok
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 15 {
		return 0, false
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int64(c-'0')
	}
	if tok[0] == '-' {
		v = -v
	}
	return v, true
}

// members iterates the object at the cursor.
func (d *Decoder) members(member func(key []byte) error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == '}' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.invalid("looking for beginning of object key string")
		}
		raw, escaped, err := d.str()
		if err != nil {
			return err
		}
		key := raw
		if escaped {
			d.key = unquote(d.key[:0], raw)
			key = d.key
		}
		if d.peek() != ':' {
			return d.invalid("after object key")
		}
		d.pos++
		if err := member(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			d.depth--
			return nil
		default:
			return d.invalid("after object key:value pair")
		}
	}
}

// elems iterates the array at the cursor, calling elem at each element.
func (d *Decoder) elems(elem func() error) error {
	if err := d.open(); err != nil {
		return err
	}
	if d.peek() == ']' {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			d.depth--
			return nil
		default:
			return d.invalid("after array element")
		}
	}
}

// open consumes '{' or '[' and enters one nesting level.
func (d *Decoder) open() error {
	if d.depth++; d.depth > maxDepth {
		return d.errorf("exceeded max depth")
	}
	d.pos++
	return nil
}

// str scans the string at the cursor and returns the raw bytes between
// the quotes (aliasing the input). escaped reports that they need
// unquote: they hold an escape, or non-ASCII bytes that may be invalid
// UTF-8.
func (d *Decoder) str() (s []byte, escaped bool, err error) {
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			d.pos++
			if d.pos == len(d.data) {
				return nil, false, io.ErrUnexpectedEOF
			}
			switch d.data[d.pos] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.pos++
			case 'u':
				d.pos++
				for j := 0; j < 4; j++ {
					if d.pos == len(d.data) {
						return nil, false, io.ErrUnexpectedEOF
					}
					if hexVal(d.data[d.pos]) < 0 {
						return nil, false, d.invalid("in \\u hexadecimal character escape")
					}
					d.pos++
				}
			default:
				return nil, false, d.invalid("in string escape code")
			}
		case c < 0x20:
			return nil, false, d.invalid("in string literal")
		default:
			if c >= utf8.RuneSelf {
				escaped = true
			}
			d.pos++
		}
	}
	return nil, false, io.ErrUnexpectedEOF
}

// unquote appends the decoded contents of a validated string body to dst
// with encoding/json's rules: escapes decoded, surrogate pairs joined,
// lone surrogates and invalid UTF-8 replaced by U+FFFD.
func unquote(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 5
				if utf16.IsSurrogate(r) {
					if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
						if p := utf16.DecodeRune(r, hex4(raw[i+2:])); p != utf8.RuneError {
							dst = utf8.AppendRune(dst, p)
							i += 6
							continue
						}
					}
					r = utf8.RuneError
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | rune(hexVal(c))
	}
	return r
}

func hexVal(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return int(c - 'A' + 10)
	}
	return -1
}

// number scans the JSON number at the cursor and returns its bytes.
func (d *Decoder) number() ([]byte, error) {
	data, start := d.data, d.pos
	i := start
	if i < len(data) && data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		d.pos = i
		return nil, io.ErrUnexpectedEOF
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.pos = i
		return nil, d.invalid("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i == len(data) || data[i]-'0' > 9 {
			d.pos = i
			return nil, d.invalid("after decimal point in numeric literal")
		}
		i = digits(data, i+1)
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i == len(data) || data[i]-'0' > 9 {
			d.pos = i
			return nil, d.invalid("in exponent of numeric literal")
		}
		i = digits(data, i+1)
	}
	d.pos = i
	return data[start:i], nil
}

// digits returns the index of the first non-digit at or after i.
func digits(data []byte, i int) int {
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	return i
}

// literal consumes the literal word (true, false or null).
func (d *Decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos == len(d.data) {
			return io.ErrUnexpectedEOF
		}
		if d.data[d.pos] != word[i] {
			return d.invalid("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// ws skips whitespace.
func (d *Decoder) ws() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *Decoder) peek() byte {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return d.data[d.pos]
	}
	d.ws()
	return d.at()
}

// at returns the byte at the cursor, or 0 at the end.
func (d *Decoder) at() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// invalid reports the byte at the cursor as a syntax error, or an
// unexpected end of input.
func (d *Decoder) invalid(context string) error {
	if d.pos >= len(d.data) {
		return io.ErrUnexpectedEOF
	}
	return d.errorf("invalid character %q %s", d.data[d.pos], context)
}

// typeErr reports a value of the wrong JSON type for its field.
func (d *Decoder) typeErr(want string) error {
	return d.errorf("cannot decode value into %s", want)
}

// errorf reports a malformed document or a value of the wrong type, with
// the byte offset where decoding stopped.
func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%s at offset %d", fmt.Sprintf(format, args...), d.pos)
}
