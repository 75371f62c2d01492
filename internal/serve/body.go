package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"repro/internal/tensor"
)

// The /v1/infer body decoder: one pass over the body, straight into the
// values the handler and the worker use — the feature matrix into the
// |V|×feat tensor.Dense the forward pass reads, with no second scan and no
// slice per row (DESIGN.md §13, "Admission").
//
// Its contract is parity with json.NewDecoder(body).Decode into
//
//	struct {
//		Model     string      `json:"model"`
//		Vertices  []int       `json:"vertices"`
//		TimeoutMS int         `json:"timeout_ms"`
//		Features  [][]float32 `json:"features"`
//	}
//
// followed by a shape check of the matrix (denseFromRows, in the tests):
// the same bodies are accepted, with the same values to the bit, and FuzzDecodeInfer holds the
// two to it. That includes what encoding/json does with keys (unquoted, then
// matched case-insensitively under Unicode simple folding; unknown keys
// skipped), null (ignored for model and timeout_ms, nil for a slice, and a
// null element of an array leaves the element as it was), duplicate keys (a
// later array decodes into the earlier one's elements) and trailing bytes
// after the first value (ignored).

const (
	// maxBodyBytes bounds what a request body may hold.
	maxBodyBytes = 32 << 20
	// maxDepth is encoding/json's nesting limit: deeper arrays and objects
	// are a syntax error. Values are skipped without recursion, so a deep
	// body costs no stack.
	maxDepth = 10000
	// maxPooledBody is the largest read buffer kept for reuse; a larger one
	// (a hostile body) goes to the collector.
	maxPooledBody = 4 << 20
)

// bodyBufs holds the read buffers bodies are decoded from. Everything
// decoded is copied out, so a buffer is free again once decodeInfer returns.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

// inferRequest is a decoded /v1/infer body.
type inferRequest struct {
	model    string
	vertices []int
	// timeoutMS is the caller's deadline in milliseconds (0 = server default;
	// clamped to the server maximum).
	timeoutMS int
	// features replaces the stored feature matrix for this one request; nil
	// means the stored one. featuresErr, when set, says why the body's matrix
	// is not |V|×feat; the handler reports it after the model and the
	// vertices.
	features    *tensor.Dense
	featuresErr error
}

// readInfer reads an /v1/infer body into a pooled buffer and decodes it
// against a rows×cols feature matrix. r yields at most maxBodyBytes before it
// fails (http.MaxBytesReader). Nothing is allocated from the client's
// declared Content-Length: the buffer grows with what arrives.
func readInfer(r io.Reader, rows, cols int) (inferRequest, error) {
	bp := bodyBufs.Get().(*[]byte)
	buf := (*bp)[:0]
	var readErr error
	for {
		if len(buf) == cap(buf) {
			// Double, but to no more than one byte past the limit: room
			// for the read that fails.
			grown := make([]byte, len(buf), len(buf)+min(max(cap(buf), 4<<10), maxBodyBytes+1-len(buf)))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
	}
	req, err := decodeInfer(buf, readErr, rows, cols)
	if cap(buf) <= maxPooledBody {
		*bp = buf[:0]
		bodyBufs.Put(bp)
	}
	return req, err
}

// decodeInfer decodes body, the bytes read before readErr (nil: the whole
// body), against a rows×cols feature matrix. A value the bytes end inside of
// answers readErr, as json.Decoder would; a syntax or type error anywhere in
// the first value fails the whole body.
func decodeInfer(body []byte, readErr error, rows, cols int) (inferRequest, error) {
	d := bodyDecoder{data: body, readErr: readErr, rows: rows, cols: cols}
	var req inferRequest
	d.space()
	if d.i == len(d.data) {
		if readErr != nil {
			return req, readErr
		}
		return req, io.EOF
	}
	switch d.data[d.i] {
	case '{':
		err := d.object(&req)
		return req, err
	case 'n':
		if err := d.literal("null"); err != nil {
			return req, err
		}
		// json.Decoder needs the byte after a literal to end it.
		if d.i == len(d.data) && readErr != nil {
			return req, readErr
		}
		// A null body decodes to the zero request.
		return req, nil
	}
	return req, fmt.Errorf("the body is %s, not a JSON object", d.describe())
}

// bodyDecoder is the state of one decodeInfer call.
type bodyDecoder struct {
	data    []byte
	i       int
	readErr error

	rows, cols int
	// verts holds every element the vertices arrays have written since the
	// last reset; a later array decodes into it (a null element keeps what
	// is there). feat is the same for the matrix, allocated only when the
	// body is long enough to hold a whole one; featStale says it holds
	// values a reset has since discarded.
	verts     []int
	feat      *tensor.Dense
	featStale bool
}

var (
	keyModel     = []byte("model")
	keyVertices  = []byte("vertices")
	keyTimeoutMS = []byte("timeout_ms")
	keyFeatures  = []byte("features")
)

// object decodes the body's top-level object into req.
func (d *bodyDecoder) object(req *inferRequest) error {
	d.i++ // '{'
	d.space()
	if d.i < len(d.data) && d.data[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		switch {
		case bytes.EqualFold(key, keyModel):
			err = d.model(req)
		case bytes.EqualFold(key, keyVertices):
			err = d.vertices(req)
		case bytes.EqualFold(key, keyTimeoutMS):
			err = d.timeoutMS(req)
		case bytes.EqualFold(key, keyFeatures):
			err = d.features(req)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		end, err := d.next('}', "after object key:value pair")
		if err != nil || end {
			return err
		}
	}
}

// key reads an object key and the colon after it, leaving d at the value.
func (d *bodyDecoder) key() ([]byte, error) {
	d.space()
	if d.i == len(d.data) {
		return nil, d.short()
	}
	if d.data[d.i] != '"' {
		return nil, d.syntax("looking for beginning of object key string")
	}
	tok, plain, err := d.str()
	if err != nil {
		return nil, err
	}
	key := tok[1 : len(tok)-1]
	if !plain {
		key = []byte(unquote(tok))
	}
	d.space()
	if d.i == len(d.data) {
		return nil, d.short()
	}
	if d.data[d.i] != ':' {
		return nil, d.syntax("after object key")
	}
	d.i++
	d.space()
	return key, nil
}

// next consumes the separator after a member of an array or object: it
// reports true at the closing byte, false after a comma.
func (d *bodyDecoder) next(closing byte, context string) (bool, error) {
	d.space()
	if d.i == len(d.data) {
		return false, d.short()
	}
	switch d.data[d.i] {
	case ',':
		d.i++
		return false, nil
	case closing:
		d.i++
		return true, nil
	}
	return false, d.syntax(context)
}

func (d *bodyDecoder) model(req *inferRequest) error {
	if d.i == len(d.data) {
		return d.short()
	}
	switch d.data[d.i] {
	case 'n':
		return d.literal("null")
	case '"':
		tok, plain, err := d.str()
		if err != nil {
			return err
		}
		if plain {
			req.model = string(tok[1 : len(tok)-1])
		} else {
			req.model = unquote(tok)
		}
		return nil
	}
	return d.typeErr("model", "a string")
}

func (d *bodyDecoder) timeoutMS(req *inferRequest) error {
	if d.i < len(d.data) && d.data[d.i] == 'n' {
		return d.literal("null")
	}
	v, err := d.integer("timeout_ms")
	if err == nil {
		req.timeoutMS = v
	}
	return err
}

func (d *bodyDecoder) vertices(req *inferRequest) error {
	if d.i == len(d.data) {
		return d.short()
	}
	switch d.data[d.i] {
	case 'n':
		req.vertices, d.verts = nil, nil
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("vertices", "an array of integers")
	}
	d.i++
	n := 0
	for d.space(); ; n++ {
		if d.i == len(d.data) {
			return d.short()
		}
		if n == 0 && d.data[d.i] == ']' {
			d.i++
			break
		}
		if n == len(d.verts) {
			d.verts = append(d.verts, 0)
		}
		if d.data[d.i] == 'n' {
			if err := d.literal("null"); err != nil {
				return err
			}
		} else {
			v, err := d.integer("vertices")
			if err != nil {
				return err
			}
			d.verts[n] = v
		}
		if end, err := d.next(']', "after array element"); err != nil {
			return err
		} else if end {
			n++
			break
		}
		d.space()
	}
	if n == 0 {
		// An empty array is a new empty slice, not nil.
		req.vertices, d.verts = []int{}, nil
		return nil
	}
	req.vertices = d.verts[:n:n]
	return nil
}

// features decodes the matrix. Elements land in d.feat at their row and
// column; the shape is judged on what the array held, by the rules and in
// the words of denseFromRows: the row count first, then the first row of
// the wrong width.
func (d *bodyDecoder) features(req *inferRequest) error {
	if d.i == len(d.data) {
		return d.short()
	}
	switch d.data[d.i] {
	case 'n':
		req.features, req.featuresErr = nil, nil
		d.featStale = true
		return d.literal("null")
	case '[':
	default:
		return d.typeErr("features", "an array of rows")
	}
	d.i++
	rows, cols := d.rows, d.cols
	// A whole matrix takes at least 2·rows·cols bytes of JSON, so a shorter
	// body cannot hold one: it is checked but not stored, and a small body
	// never costs a |V|×feat allocation.
	if d.feat == nil && len(d.data)/2 >= rows*cols {
		d.feat = tensor.NewDense(rows, cols)
	} else if d.feat != nil && d.featStale {
		clear(d.feat.Data)
	}
	d.featStale = false
	var data []float32
	if d.feat != nil {
		data = d.feat.Data
	}
	badRow, badCols := -1, 0
	n := 0
	for d.space(); ; n++ {
		if d.i == len(d.data) {
			return d.short()
		}
		if n == 0 && d.data[d.i] == ']' {
			d.i++
			break
		}
		var row []float32 // row n of the matrix, nil past its last row
		if data != nil && n < rows {
			row = data[n*cols : (n+1)*cols]
		}
		width := 0
		switch d.data[d.i] {
		case 'n':
			// A null row is nil: zero columns, and nothing kept.
			clear(row)
			if err := d.literal("null"); err != nil {
				return err
			}
		case '[':
			var err error
			if width, err = d.row(row); err != nil {
				return err
			}
		default:
			return d.typeErr("features", "an array of numbers")
		}
		if width != cols && badRow < 0 {
			badRow, badCols = n, width
		}
		if end, err := d.next(']', "after array element"); err != nil {
			return err
		} else if end {
			n++
			break
		}
		d.space()
	}
	switch {
	case n == 0:
		// An empty array is a new empty slice: what an earlier one wrote
		// is gone.
		d.featStale = true
		req.featuresErr = fmt.Errorf("features must have %d rows (one per vertex), got 0", rows)
	case n != rows:
		req.featuresErr = fmt.Errorf("features must have %d rows (one per vertex), got %d", rows, n)
	case badRow >= 0:
		req.featuresErr = fmt.Errorf("features row %d has %d columns, want %d", badRow, badCols, cols)
	default:
		req.featuresErr = nil
	}
	req.features = d.feat
	return nil
}

// row decodes one row of the matrix into row (nil: check only) and returns
// how many elements it held.
func (d *bodyDecoder) row(row []float32) (int, error) {
	d.i++ // '['
	d.space()
	if d.i < len(d.data) && d.data[d.i] == ']' {
		// An empty row is a new empty slice.
		d.i++
		clear(row)
		return 0, nil
	}
	for j := 0; ; j++ {
		if d.i == len(d.data) {
			return 0, d.short()
		}
		if d.data[d.i] == 'n' {
			// A null element keeps what is there.
			if err := d.literal("null"); err != nil {
				return 0, err
			}
		} else {
			v, err := d.float32()
			if err != nil {
				return 0, err
			}
			if j < len(row) {
				row[j] = v
			}
		}
		if end, err := d.next(']', "after array element"); err != nil || end {
			return j + 1, err
		}
		d.space()
	}
}

// scanNumber reads the JSON number at d.i, checking its grammar, and
// reports whether it is integral: no fraction and no exponent.
func (d *bodyDecoder) scanNumber() (integral bool, err error) {
	data, i := d.data, d.i
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i == len(data) {
		return false, d.short()
	}
	switch c := data[i]; {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	default:
		d.i = i
		return false, d.syntax("in numeric literal")
	}
	integral = true
	if i < len(data) && data[i] == '.' {
		integral = false
		i++
		start := i
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		if i == start {
			d.i = i
			if i == len(data) {
				return false, d.short()
			}
			return false, d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		integral = false
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		start := i
		for i < len(data) && isDigit(data[i]) {
			i++
		}
		if i == start {
			d.i = i
			if i == len(data) {
				return false, d.short()
			}
			return false, d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return integral, nil
}

// integer decodes an int the way encoding/json does: a number with a
// fraction or an exponent, or one past int64, is a type error.
func (d *bodyDecoder) integer(field string) (int, error) {
	if d.i == len(d.data) {
		return 0, d.short()
	}
	start := d.i
	if c := d.data[start]; c != '-' && !isDigit(c) {
		return 0, d.typeErr(field, "an integer")
	}
	integral, err := d.scanNumber()
	if err != nil {
		return 0, err
	}
	tok := d.data[start:d.i]
	v, err := strconv.ParseInt(string(tok), 10, 64)
	if !integral || err != nil {
		return 0, fmt.Errorf("%s: cannot decode number %s into an integer", field, tok)
	}
	return int(v), nil
}

// pow10 holds the powers of ten a float64 represents exactly, as far as the
// fast path of float32 needs them.
var pow10 = [16]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// float32 decodes a matrix element; the result is bit-identical to
// strconv.ParseFloat(tok, 32), and a token that overflows float32 is a type
// error, as in encoding/json.
//
// The fast path takes a token with no exponent and at most 15 digits: its
// digits m and 10^frac are exact float64s, so m / 10^frac is the correctly
// rounded float64 of the token. Rounding that to float32 can differ from
// rounding the token itself only when the float64 lies exactly halfway
// between two float32s — its low 29 mantissa bits are 1<<28 — and those go
// to strconv. No fast-path value is in float32's subnormal range, whose
// halfway points sit elsewhere: the smallest nonzero one is 1e-14.
func (d *bodyDecoder) float32() (float32, error) {
	data, start := d.data, d.i
	if c := data[start]; c != '-' && !isDigit(c) {
		return 0, d.typeErr("features", "a number")
	}
	// The fast path scans in place, and leaves every grammar error to
	// scanNumber.
	i := start
	if data[i] == '-' {
		i++
	}
	var mant uint64
	intStart := i
	for ; i < len(data) && data[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(data[i]-'0')
	}
	digits, frac := i-intStart, 0
	ok := digits == 1 || digits > 1 && data[intStart] != '0'
	if ok && i < len(data) && data[i] == '.' {
		i++
		fracStart := i
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(data[i]-'0')
		}
		frac = i - fracStart
		digits += frac
		ok = frac > 0
	}
	if ok && digits <= 15 && i < len(data) && data[i] != 'e' && data[i] != 'E' {
		f := float64(mant) / pow10[frac]
		if data[start] == '-' {
			f = -f
		}
		if math.Float64bits(f)&(1<<29-1) != 1<<28 {
			d.i = i
			return float32(f), nil
		}
	}
	// Everything else — and every grammar error — goes through the checked
	// scan and strconv.
	d.i = start
	if _, err := d.scanNumber(); err != nil {
		return 0, err
	}
	tok := data[start:d.i]
	f, err := strconv.ParseFloat(string(tok), 32)
	if err != nil {
		return 0, fmt.Errorf("features: cannot decode number %s into a float32", tok)
	}
	return float32(f), nil
}

// str reads the string token at d.i, checking its grammar; plain reports no
// escapes and no byte outside ASCII, so the bytes between the quotes are the
// string.
func (d *bodyDecoder) str() (tok []byte, plain bool, err error) {
	data, start := d.data, d.i
	plain = true
	for i := start + 1; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			d.i = i + 1
			return data[start:d.i], plain, nil
		case c == '\\':
			plain = false
			i++
			if i == len(data) {
				return nil, false, d.short()
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				for k := 0; k < 4; k++ {
					if i++; i == len(data) {
						return nil, false, d.short()
					}
					if !isHex(data[i]) {
						d.i = i
						return nil, false, d.syntax("in \\u hexadecimal character escape")
					}
				}
			default:
				d.i = i
				return nil, false, d.syntax("in string escape code")
			}
		case c < 0x20:
			d.i = i
			return nil, false, d.syntax("in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false, d.short()
}

// unquote decodes a string token that has escapes or non-ASCII bytes. Such
// tokens are keys and model names, a few bytes long; encoding/json's rules
// for them (surrogate pairs, invalid UTF-8 becoming U+FFFD) are its own.
func unquote(tok []byte) string {
	var s string
	_ = json.Unmarshal(tok, &s) // the token's grammar is checked already
	return s
}

// literal reads the literal word at d.i.
func (d *bodyDecoder) literal(word string) error {
	for k := 0; k < len(word); k++ {
		if d.i == len(d.data) {
			return d.short()
		}
		if d.data[d.i] != word[k] {
			return d.syntax("in literal " + word)
		}
		d.i++
	}
	return nil
}

// skip checks and passes over one value inside depth open containers. It
// keeps its own stack of the containers open in the value instead of
// recursing, so a body of a million '[' costs one error, not a stack.
func (d *bodyDecoder) skip(depth int) error {
	var closers []byte // the byte that closes each open container, innermost last
	for {
		// A value.
		if d.i == len(d.data) {
			return d.short()
		}
		switch c := d.data[d.i]; {
		case c == '{' || c == '[':
			if depth+len(closers) == maxDepth {
				return errors.New("exceeded max depth")
			}
			d.i++
			d.space()
			if d.i == len(d.data) {
				return d.short()
			}
			if d.data[d.i] == c+2 { // '}' is '{'+2, ']' is '['+2
				d.i++
				break
			}
			closers = append(closers, c+2)
			if c == '{' {
				if _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || isDigit(c):
			if _, err := d.scanNumber(); err != nil {
				return err
			}
		default:
			return d.syntax("looking for beginning of value")
		}
		// After a value: close containers until a comma opens the next one.
		for {
			if len(closers) == 0 {
				return nil
			}
			closing := closers[len(closers)-1]
			context := "after array element"
			if closing == '}' {
				context = "after object key:value pair"
			}
			end, err := d.next(closing, context)
			if err != nil {
				return err
			}
			if end {
				closers = closers[:len(closers)-1]
				continue
			}
			if closing == '}' {
				if _, err := d.key(); err != nil {
					return err
				}
			} else {
				d.space()
			}
			break
		}
	}
}

func (d *bodyDecoder) space() {
	for d.i < len(d.data) && isSpace(d.data[d.i]) {
		d.i++
	}
}

// short is the error for a value the bytes end inside of.
func (d *bodyDecoder) short() error {
	if d.readErr != nil {
		return d.readErr
	}
	return io.ErrUnexpectedEOF
}

func (d *bodyDecoder) syntax(context string) error {
	return fmt.Errorf("invalid character %q %s", d.data[d.i], context)
}

func (d *bodyDecoder) typeErr(field, want string) error {
	return fmt.Errorf("%s: cannot decode %s into %s", field, d.describe(), want)
}

// describe names the kind of value at d.i, for an error.
func (d *bodyDecoder) describe() string {
	switch c := d.data[d.i]; {
	case c == '{':
		return "an object"
	case c == '[':
		return "an array"
	case c == '"':
		return "a string"
	case c == 't' || c == 'f':
		return "a bool"
	case c == 'n':
		return "null"
	case c == '-' || isDigit(c):
		return "a number"
	}
	return fmt.Sprintf("invalid character %q", d.data[d.i])
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return '0' <= c && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}
