package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/tensor"
)

// wireRequest is an /v1/infer body as a client writes it, and the shape
// encoding/json decodes it into: the oracle decodeInfer is held to.
type wireRequest struct {
	Model     string      `json:"model"`
	Vertices  []int       `json:"vertices"`
	TimeoutMS int         `json:"timeout_ms"`
	Features  [][]float32 `json:"features,omitempty"`
}

// denseFromRows is the shape check and copy the handler ran on a decoded
// matrix before decodeInfer wrote the matrix in place; decodeInfer's shape
// errors must be its errors, word for word.
func denseFromRows(rows [][]float32, wantRows, wantCols int) (*tensor.Dense, error) {
	if len(rows) != wantRows {
		return nil, fmt.Errorf("features must have %d rows (one per vertex), got %d", wantRows, len(rows))
	}
	d := tensor.NewDense(wantRows, wantCols)
	for i, row := range rows {
		if len(row) != wantCols {
			return nil, fmt.Errorf("features row %d has %d columns, want %d", i, len(row), wantCols)
		}
		copy(d.Data[i*wantCols:(i+1)*wantCols], row)
	}
	return d, nil
}

// errCut stands for a read error after the bytes a body decoder was given.
var errCut = errors.New("connection cut")

// checkDecodeParity decodes body with decodeInfer and with encoding/json plus
// denseFromRows against a rows×cols matrix — the whole body, and the body
// followed by a read error — and fails on any difference: accept or reject,
// model, timeout_ms, vertices (nil and empty apart), whether a matrix came,
// its shape error, and every element's bits.
func checkDecodeParity(t *testing.T, body []byte, rows, cols int) {
	t.Helper()
	for _, readErr := range []error{nil, errCut} {
		got, gotErr := decodeInfer(body, readErr, rows, cols)
		var src io.Reader = bytes.NewReader(body)
		if readErr != nil {
			src = io.MultiReader(src, iotest.ErrReader(readErr))
		}
		var want wireRequest
		wantErr := json.NewDecoder(src).Decode(&want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("body %q (read error %v): decodeInfer says %v, encoding/json says %v", body, readErr, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if got.model != want.Model || got.timeoutMS != want.TimeoutMS {
			t.Fatalf("body %q: model %q timeout_ms %d, encoding/json %q %d", body, got.model, got.timeoutMS, want.Model, want.TimeoutMS)
		}
		if (got.vertices == nil) != (want.Vertices == nil) || !slices.Equal(got.vertices, want.Vertices) {
			t.Fatalf("body %q: vertices %#v, encoding/json %#v", body, got.vertices, want.Vertices)
		}
		gotMatrix := got.features != nil || got.featuresErr != nil
		if gotMatrix != (want.Features != nil) {
			t.Fatalf("body %q: matrix present %v, encoding/json %v", body, gotMatrix, want.Features != nil)
		}
		if want.Features == nil {
			continue
		}
		wantD, wantShape := denseFromRows(want.Features, rows, cols)
		if wantShape != nil || got.featuresErr != nil {
			if wantShape == nil || got.featuresErr == nil || got.featuresErr.Error() != wantShape.Error() {
				t.Fatalf("body %q: shape error %v, want %v", body, got.featuresErr, wantShape)
			}
			continue
		}
		for k, w := range wantD.Data {
			if g := got.features.Data[k]; math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("body %q: features[%d][%d] = %v (%#x), encoding/json %v (%#x)",
					body, k/cols, k%cols, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// FuzzDecodeInfer holds the one-pass body decoder to encoding/json on
// arbitrary bodies, against a 2×3 matrix so that whole matrices are within
// the fuzzer's reach.
func FuzzDecodeInfer(f *testing.F) {
	for _, body := range []string{
		`{"model":"GCN","vertices":[0,1],"timeout_ms":500,"features":[[1,2,3],[4,5,6]]}`,
		`{"features":[[0.1,-0.5,1e-7],[3.4028235e38,-0,0.100000001490116119384765625]]}`,
		`{"features":[[16777217,1E2,-2.5e-3],[1e-45,1.4e-45,5e-324]]}`,
		`{"features":[[3.5e38,0,0],[0,0,0]]}`,
		`{"features":[[1,2,3],null]}`,
		`{"features":[[1,2,3]]}`,
		`{"features":[]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":[[null,9,null],[7,null,8]]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":[[]],"features":[[null,null,null],[null,null,null]]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":[],"features":[[null,1,2],[null,3,4]]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":null,"features":[[null,1,2],[null,3,4]]}`,
		`{"features":[[1,2,3,7],[4,5,6]],"features":[[1,2],[4,5,6]],"features":[[1,2,null],[4,5,6]]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":[[1,2,3],[4,5,6],[7,8,9]],"features":[[1,2,3],[4,5,6]]}`,
		`{"features":[[1,2,3],[4,5,6]],"features":null}`,
		`{"features":[[true,2,3],[4,5,6]]}`,
		`{"features":[[1,2,3],[4,5,6]}`,
		`{"vertices":[1,2,3],"vertices":[null,5]}`,
		`{"vertices":[]}`,
		`{"vertices":null}`,
		`{"vertices":[1],"vertices":null}`,
		`{"vertices":[1.0]}`,
		`{"vertices":[1e2]}`,
		`{"vertices":[-0,9223372036854775807,-9223372036854775808]}`,
		`{"vertices":[9223372036854775808]}`,
		`{"timeout_ms":-0}`,
		`{"timeout_ms":12,"timeout_ms":null}`,
		`{"timeout_ms":"12"}`,
		`{"model":"a","model":null}`,
		`{"model":5}`,
		`{"MODEL":"GCN","Vertices":[1],"TIMEOUT_MS":7,"FeatureS":null}`,
		`{"verticeſ":[1],"model":"GCN"}`,
		`{"model":"GÇN😀","x\ty":1}`,
		"{\"model\":\"G\xffN\"}",
		"{\"model\":\"G\x01N\"}",
		`{"model":"GCN\q"}`,
		`{"x":[[[[{"a":[1,{"b":null}],"c":"d"}]]]],"model":"GAT","y":[true,false,null,-1.5e+3,{}],"z":{}}`,
		`{"model":"GCN"} trailing garbage`,
		` {"model":"GCN"}{`,
		`null`,
		`nullx`,
		`nul`,
		`[1]`,
		`"model"`,
		``,
		`   `,
		`{`,
		`{"model"`,
		`{"model":}`,
		`{"model":"GCN",}`,
		`{"vertices":[01]}`,
		`{"vertices":[1,]}`,
		`{"vertices":[-]}`,
		`{"features":[[1.,2,3],[4,5,6]]}`,
		`{"features":[[.5,2,3],[4,5,6]]}`,
		`{"features":[[1e,2,3],[4,5,6]]}`,
		`{"features":[[1,2,3],[4,5,6]],"x":` + strings.Repeat("[", maxDepth-1) + strings.Repeat("]", maxDepth-1) + `}`,
		`{"features":[[1,2,3],[4,5,6]],"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeParity(t, body, 2, 3)
	})
}

// TestDecodeInferHardFloats: matrix elements convert exactly as
// strconv.ParseFloat(s, 32) does — the named hard cases (a float32's exact
// decimal, an integer halfway between two float32s, the largest float32,
// the smallest subnormal, a negative zero, an overflow, decimals whose
// float64 is a float32 halfway point), then every
// float32 shortest form of a random sample and random decimals of up to 16
// digits, which cover the fast path and its way out.
func TestDecodeInferHardFloats(t *testing.T) {
	check := func(s string) {
		t.Helper()
		// As in a row: a number ends at the byte after it.
		d := bodyDecoder{data: []byte(s + "]")}
		got, err := d.float32()
		if err == nil && d.i != len(s) {
			t.Fatalf("%s: stopped at byte %d", s, d.i)
		}
		want, wantErr := strconv.ParseFloat(s, 32)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s: error %v, strconv %v", s, err, wantErr)
		}
		if err == nil && math.Float32bits(got) != math.Float32bits(float32(want)) {
			t.Fatalf("%s: %v (%#x), strconv %v (%#x)", s, got, math.Float32bits(got), want, math.Float32bits(float32(want)))
		}
	}
	for _, s := range []string{
		"0.100000001490116119384765625", "16777217", "3.4028235e38", "1e-45", "-0.0", "1e400",
		"-0", "0", "16777216", "16777219", "33554435", "3.4028236e38", "3.5e38", "-1e400",
		"1.1754943e-38", "1.17549435e-38", "7e-46", "1e-46", "0.000000059604644775390625",
		"123456789012345", "1234567890123456", "0.000000000000001", "999999999999999",
		"0.30000001192092896", "1.00000005960464477539062",
		// 15 digits whose float64 lands exactly halfway between two float32s
		// though the decimal does not: rounding that float64 again gives the
		// wrong neighbour.
		"-7.44796347618103", "7.45116925239563", "8.89966344833374", "5.38575291633606",
	} {
		check(s)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		f := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(f)) || math.IsInf(float64(f), 0) {
			continue
		}
		check(strconv.FormatFloat(float64(f), 'f', -1, 32))
		check(strconv.FormatFloat(float64(f), 'g', -1, 32))
		var b strings.Builder
		if rng.Intn(2) == 0 {
			b.WriteByte('-')
		}
		intDigits := rng.Intn(9)
		b.WriteString(strconv.Itoa(1 + rng.Intn(9)))
		for k := 0; k < intDigits; k++ {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		b.WriteByte('.')
		for k := rng.Intn(16 - intDigits); k >= 0; k-- {
			b.WriteByte(byte('0' + rng.Intn(10)))
		}
		check(b.String())
	}
}

// TestInferErrorOrder: a syntax or type error anywhere in the body answers
// 400 before an unknown model answers 404, which comes before the vertices
// are checked, which comes before the matrix's shape; a null body is the
// zero request, whose empty model is unknown.
func TestInferErrorOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	for _, c := range []struct {
		body string
		code int
		msg  string
	}{
		{`{"model":"nope","vertices":[-1],"features":[[1]],"x":tru}`, http.StatusBadRequest, "bad request body"},
		{`{"model":"nope","vertices":[-1],"features":"x"}`, http.StatusBadRequest, "bad request body"},
		{`{"model":"nope","vertices":[-1],"features":[[1]]}`, http.StatusNotFound, "unknown model"},
		{`{"model":"GCN","vertices":[-1],"features":[[1]]}`, http.StatusBadRequest, "vertex -1 out of range"},
		{`{"model":"GCN","vertices":[0],"features":[[1]]}`, http.StatusBadRequest, "features must have 2708 rows (one per vertex), got 1"},
		{`{"model":"GCN","vertices":[0],"features":[[1]]} trailing`, http.StatusBadRequest, "features must have 2708 rows"},
		{`null`, http.StatusNotFound, "unknown model"},
	} {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.code || !strings.Contains(string(raw), c.msg) {
			t.Errorf("%s: status %d %s, want %d with %q", c.body, resp.StatusCode, raw, c.code, c.msg)
		}
	}
}

// rawPost writes head (the request line and headers) and body to the server
// over its own connection, optionally half-closes it, and reads the answer.
// The body is written from its own goroutine: the server may answer, and
// stop reading, before the body ends.
func rawPost(t *testing.T, addr, head string, body io.Reader, closeWrite bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		if _, err := io.WriteString(conn, head); err != nil {
			return
		}
		if _, err := io.Copy(conn, body); err != nil {
			return
		}
		if closeWrite {
			conn.(*net.TCPConn).CloseWrite()
		}
	}()
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw)
}

// repeatByte is an endless reader of one byte.
type repeatByte byte

func (r repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}

// TestHostileBodiesAreTypedErrors: bodies built to hurt the daemon — deep
// nesting under an unknown key, more than 32 MiB, a Content-Length far past
// what is sent — each answer 400, and the daemon answers the next valid
// request with 200.
func TestHostileBodiesAreTypedErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Models: []string{"GCN"}})
	addr := strings.TrimPrefix(ts.URL, "http://")
	valid := func(after string) {
		t.Helper()
		if code, _, e := postInfer(t, ts.URL, wireRequest{Model: "GCN", Vertices: []int{0}}); code != http.StatusOK {
			t.Fatalf("after %s: valid request got status %d (%s)", after, code, e.Error)
		}
	}
	const head = "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"

	// A recursive skip with no depth bound would overflow the goroutine
	// stack here and take the process with it.
	deep := `{"model":"GCN","vertices":[0],"x":` + strings.Repeat("[", 1<<20)
	code, msg := rawPost(t, addr, head+fmt.Sprintf("Content-Length: %d\r\n\r\n", len(deep)), strings.NewReader(deep), false)
	if code != http.StatusBadRequest || !strings.Contains(msg, "exceeded max depth") {
		t.Errorf("1 MiB of nested '[': status %d %s, want 400 exceeded max depth", code, msg)
	}
	valid("deep nesting")

	// 33 MiB of string under an unknown key: the value does not end within
	// the limit.
	big := io.MultiReader(strings.NewReader(`{"model":"GCN","vertices":[0],"pad":"`),
		io.LimitReader(repeatByte('a'), 33<<20), strings.NewReader(`"}`))
	code, msg = rawPost(t, addr, head+fmt.Sprintf("Content-Length: %d\r\n\r\n", 33<<20+40), big, false)
	if code != http.StatusBadRequest || !strings.Contains(msg, "request body too large") {
		t.Errorf("33 MiB body: status %d %s, want 400 request body too large", code, msg)
	}
	valid("a body past 32 MiB")

	// 32 MiB declared, 20 bytes sent, then the client stops writing.
	short := `{"model":"GCN","vert`
	code, msg = rawPost(t, addr, head+"Content-Length: 33554432\r\n\r\n", strings.NewReader(short), true)
	if code != http.StatusBadRequest {
		t.Errorf("Content-Length 32 MiB with 20 bytes sent: status %d %s, want 400", code, msg)
	}
	valid("a short body")
}

// TestDeclaredLengthAllocatesNothing: the read buffer grows with the bytes
// that arrive, not with the Content-Length a client declares.
func TestDeclaredLengthAllocatesNothing(t *testing.T) {
	s, _ := newTestServer(t, Config{Models: []string{"GCN"}})
	req := httptest.NewRequest(http.MethodPost, "/v1/infer", strings.NewReader(`{"model":"GCN","vert`))
	req.ContentLength = 32 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("status %d (%s), want 400", rec.Code, rec.Body)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("a 20-byte body declaring 32 MiB allocated %d bytes", n)
	}
}

// BenchmarkDecodeInfer decodes a serve-mixed caller-features body — CO's
// 2708×16 matrix of uniform [-1, 1) floats as encoding/json writes them,
// 4 vertices, ~466 KiB — and a serve-stored body (4 vertices, no matrix)
// with encoding/json plus denseFromRows (what the handler ran before) and
// with readInfer.
func BenchmarkDecodeInfer(b *testing.B) {
	x := tensor.NewDense(2708, 16)
	x.FillRandom(rand.New(rand.NewSource(1)), 1)
	rows := make([][]float32, x.Rows)
	for i := range rows {
		rows[i] = x.Row(i)
	}
	for _, c := range []struct {
		name     string
		features [][]float32
	}{{"matrix", rows}, {"stored", nil}} {
		body, err := json.Marshal(wireRequest{Model: "GCN", Vertices: []int{17, 99, 1500, 2700}, Features: c.features})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encoding-json", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req wireRequest
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
				if req.Features == nil {
					continue
				}
				if _, err := denseFromRows(req.Features, x.Rows, x.Cols); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/one-pass", func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				req, err := readInfer(bytes.NewReader(body), x.Rows, x.Cols)
				if err != nil || req.featuresErr != nil || len(req.vertices) != 4 {
					b.Fatal(err, req.featuresErr)
				}
				if c.features != nil && !req.features.Equal(x) {
					b.Fatal("the matrix decoded wrong")
				}
			}
		})
	}
}
