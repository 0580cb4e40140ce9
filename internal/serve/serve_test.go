package serve

// Shared test fixtures: a small deterministic snapshot plus helpers to
// drive the server through the full HTTP pipeline (httptest, no socket).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"testing"

	"graphword2vec/internal/model"
	"graphword2vec/internal/vocab"
)

// testVocab builds n words "w000".."w(n-1)" with strictly descending
// counts, so Build's (count desc, text) order equals insertion order and
// word ids are predictable.
func testVocab(t testing.TB, n int) *vocab.Vocabulary {
	t.Helper()
	b := vocab.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddN(fmt.Sprintf("w%03d", i), int64(2*n-i))
	}
	voc, err := b.Build(vocab.Options{MinCount: 1})
	if err != nil {
		t.Fatalf("build vocab: %v", err)
	}
	return voc
}

// testSnapshot builds an in-memory snapshot over a random model.
func testSnapshot(t testing.TB, n, dim int, ann bool) *Snapshot {
	t.Helper()
	voc := testVocab(t, n)
	m := model.New(n, dim)
	m.InitRandom(7)
	return NewSnapshot("test-snap", m, voc, StoreConfig{BuildANN: ann})
}

// testServer wires a snapshot into a ready Server; Close is registered.
func testServer(t testing.TB, snap *Snapshot, cfg Config) *Server {
	t.Helper()
	srv := New(NewStore(snap, StoreConfig{}), cfg)
	t.Cleanup(srv.Close)
	return srv
}

// do sends one request through ServeHTTP and returns the recorder.
func do(t testing.TB, srv *Server, method, path string, body interface{}) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("marshal request: %v", err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, req)
	return w
}

// decodeAs unmarshals a recorder body into out.
func decodeAs(t testing.TB, w *httptest.ResponseRecorder, out interface{}) {
	t.Helper()
	if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
		t.Fatalf("unmarshal response %q: %v", w.Body.String(), err)
	}
}

// wantError asserts an error-envelope response with the given status
// and code.
func wantError(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d, want %d (body %q)", w.Code, status, w.Body.String())
	}
	var e Error
	decodeAs(t, w, &e)
	if e.Code != code {
		t.Fatalf("code = %q, want %q (body %q)", e.Code, code, w.Body.String())
	}
	if e.Message == "" {
		t.Fatalf("error %q has empty message", code)
	}
}

// NewSnapshot builds the query indexes over an in-memory model on every
// processor.
func NewSnapshot(id string, m *model.Model, voc *vocab.Vocabulary, cfg StoreConfig) *Snapshot {
	return newSnapshot(id, m, voc, cfg, runtime.GOMAXPROCS(0))
}
