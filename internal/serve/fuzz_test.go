package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// fuzzServer is the one CO server a fuzz process drives: New compiles and
// warms up (warmupFor is short under TestMain), so it is built once, not per
// input, and never drained — it lives as long as the process.
var fuzzServer struct {
	sync.Once
	s   *Server
	err error
}

// FuzzInferBody drives handleInfer with arbitrary request bodies. Whatever the
// body, the handler does not panic and answers one of the statuses a client
// can be told to act on; a 200 carries one row of `classes` finite logits per
// requested vertex.
func FuzzInferBody(f *testing.F) {
	for _, body := range []string{
		`{"model":"GCN","vertices":[0,1,2]}`,
		`{"model":"gat","vertices":[2707],"timeout_ms":500}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzServer.Do(func() {
			fuzzServer.s, fuzzServer.err = New(Config{Models: []string{"GCN", "GAT"}})
		})
		if fuzzServer.err != nil {
			t.Fatal(fuzzServer.err)
		}
		s := fuzzServer.s
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			return
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		// The handler decodes the first JSON value of the body; so does this.
		var req wireRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp inferResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with a body that does not decode (%v): %q", err, rec.Body)
		}
		if len(resp.Logits) != len(req.Vertices) {
			t.Fatalf("%d rows for %d vertices", len(resp.Logits), len(req.Vertices))
		}
		for i, row := range resp.Logits {
			if len(row) != s.cfg.Classes {
				t.Fatalf("row %d has %d logits, want %d", i, len(row), s.cfg.Classes)
			}
			for _, v := range row {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					t.Fatalf("row %d holds %v", i, v)
				}
			}
		}
	})
}
