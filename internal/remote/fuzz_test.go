package remote

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"activemem/internal/store"
)

// FuzzCellHandler drives the labcached cell protocol with an arbitrary
// method, path, protocol headers and body against one writable store
// holding a known cell. Invariants: the handler never panics, answers only
// the protocol's statuses, and a PUT it accepts reads back by GET with the
// same bytes and a matching checksum header. Seeds live in
// testdata/fuzz/FuzzCellHandler: a good PUT, a bad checksum, a schema
// mismatch, an oversized type header and a weak If-None-Match.
func FuzzCellHandler(f *testing.F) {
	st, err := store.Open(f.TempDir(), store.Options{Schema: testSchema})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	h := NewHandler(st)
	type cell struct {
		typeName string
		payload  []byte
	}
	// stored mirrors what the handler admitted, so a 200 "already present"
	// PUT is checked against the first write's bytes, not its own body.
	stored := map[string]cell{"seed-cell": {"core.Metrics", []byte("seed-payload")}}
	if _, err := st.Put("seed-cell", "core.Metrics", []byte("seed-payload")); err != nil {
		f.Fatal(err)
	}

	serve := func(method, path string, hdr http.Header, body []byte) *httptest.ResponseRecorder {
		r := &http.Request{
			Method:        method,
			URL:           &url.URL{Path: path},
			Header:        hdr,
			Body:          io.NopCloser(bytes.NewReader(body)),
			ContentLength: int64(len(body)),
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}

	f.Fuzz(func(t *testing.T, method, path, schema, typeName, crc, ifNoneMatch string, body []byte) {
		hdr := http.Header{}
		for k, v := range map[string]string{HeaderSchema: schema, HeaderType: typeName,
			HeaderChecksum: crc, "If-None-Match": ifNoneMatch} {
			if v != "" {
				hdr.Set(k, v)
			}
		}
		w := serve(method, path, hdr, body)
		switch w.Code {
		case http.StatusOK, http.StatusCreated, http.StatusNotModified, http.StatusBadRequest,
			http.StatusNotFound, http.StatusMethodNotAllowed, http.StatusPreconditionFailed,
			http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q answered %d: %s", method, path, w.Code, w.Body.Bytes())
		}
		if method != http.MethodPut || (w.Code != http.StatusCreated && w.Code != http.StatusOK) {
			return
		}

		key, _ := cellKey(path)
		want, seen := stored[key]
		if w.Code == http.StatusCreated {
			if seen {
				t.Fatalf("PUT %q stored a second record for a present key", key)
			}
			want = cell{typeName, append([]byte(nil), body...)}
			stored[key] = want
		} else if !seen {
			t.Fatalf("PUT %q answered 200 (present) for a key never stored", key)
		}
		get := serve(http.MethodGet, path, http.Header{HeaderSchema: {testSchema}}, nil)
		if get.Code != http.StatusOK {
			t.Fatalf("GET after accepted PUT %q answered %d", key, get.Code)
		}
		got := get.Body.Bytes()
		if !bytes.Equal(got, want.payload) || get.Header().Get(HeaderType) != want.typeName {
			t.Fatalf("GET %q = (%q, %q), want (%q, %q)", key,
				get.Header().Get(HeaderType), got, want.typeName, want.payload)
		}
		if !ChecksumMatches(get.Header().Get(HeaderChecksum), got) {
			t.Fatalf("GET %q checksum header %q does not match its body", key, get.Header().Get(HeaderChecksum))
		}
	})
}
