package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

// filler yields n bytes of 'a', so a small seed can carry a body past
// maxBody without committing a megabyte to the corpus.
type filler struct{ n int64 }

func (f *filler) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > f.n {
		p = p[:f.n]
	}
	for i := range p {
		p[i] = 'a'
	}
	f.n -= int64(len(p))
	return len(p), nil
}

// FuzzCampaignHandler drives the coordinator's HTTP surface with an
// arbitrary method, endpoint suffix under PathPrefix and body (followed by
// pad filler bytes, capped just past maxBody). Invariants: the handler
// never panics, answers only the protocol's statuses, every 200 body is
// JSON, and the coordinator's done count never decreases across inputs —
// in particular a cell completed before fuzzing starts is never leased
// again. Seeds live in testdata/fuzz/FuzzCampaignHandler: a good claim, a
// claim missing its worker, a manifest, a body over maxBody and a GET on
// claim.
func FuzzCampaignHandler(f *testing.F) {
	now := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	c := NewCoordinator(Options{Now: func() time.Time { return now }})
	h := NewHandler(c)
	const doneKey = "seed-done"
	grant := c.Claim(ClaimRequest{Key: doneKey, Worker: "seed"})
	if !c.Done(DoneRequest{Key: doneKey, Worker: "seed", Lease: grant.Lease}).Accepted {
		f.Fatal("seed cell not completed")
	}
	lastDone := c.Status().Done

	f.Fuzz(func(t *testing.T, method, endpoint string, body []byte, pad uint32) {
		n := min(int64(pad), maxBody+1)
		r := &http.Request{
			Method:        method,
			URL:           &url.URL{Path: PathPrefix + endpoint},
			Header:        http.Header{},
			Body:          io.NopCloser(io.MultiReader(bytes.NewReader(body), &filler{n})),
			ContentLength: int64(len(body)) + n,
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch w.Code {
		case http.StatusOK:
			if !json.Valid(w.Body.Bytes()) {
				t.Fatalf("%s %q answered 200 with a non-JSON body %q", method, endpoint, w.Body.Bytes())
			}
		case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed,
			http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %q answered %d: %s", method, endpoint, w.Code, w.Body.Bytes())
		}
		done := c.Status().Done
		if done < lastDone {
			t.Fatalf("done cells fell from %d to %d after %s %q", lastDone, done, method, endpoint)
		}
		lastDone = done
		if a := c.Claim(ClaimRequest{Key: doneKey, Worker: "probe"}).Action; a == ActionRun {
			t.Fatalf("completed cell leased again after %s %q", method, endpoint)
		}
	})
}
