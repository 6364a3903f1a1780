// The coordinator's HTTP surface: five POST endpoints taking small JSON
// bodies plus a GET status page, all under PathPrefix. labcached mounts
// the handler beside its cell store (one process serves both the results
// and the leases), or alone when it serves no store directory; auth is
// layered on top by the caller via remote.RequireAuth, so the wire
// posture matches the cell endpoints exactly.

package fleet

import (
	"encoding/json"
	"net/http"
	"strings"
)

// maxBody bounds request bodies. Manifests are the largest payload: a
// full paper grid is a few hundred cells × ~100 bytes, far under this.
const maxBody = 1 << 20

// NewHandler serves c under PathPrefix. Endpoints match exactly: any
// other path, including a non-canonical spelling of an endpoint, is 404.
func NewHandler(c *Coordinator) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		endpoint, ok := strings.CutPrefix(r.URL.Path, PathPrefix)
		if !ok {
			endpoint = ""
		}
		switch endpoint {
		case "claim":
			var req ClaimRequest
			if decode(w, r, &req) && require(w, req.Key != "" && req.Worker != "") {
				reply(w, c.Claim(req))
			}
		case "done":
			var req DoneRequest
			if decode(w, r, &req) && require(w, req.Key != "" && req.Worker != "") {
				reply(w, c.Done(req))
			}
		case "fail":
			var req FailRequest
			if decode(w, r, &req) && require(w, req.Key != "" && req.Worker != "") {
				reply(w, c.Fail(req))
			}
		case "heartbeat":
			var req HeartbeatRequest
			if decode(w, r, &req) && require(w, req.Worker != "") {
				reply(w, c.Heartbeat(req))
			}
		case "manifest":
			var req ManifestRequest
			if decode(w, r, &req) {
				reply(w, c.Manifest(req))
			}
		case "status":
			if r.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			reply(w, c.Status())
		default:
			http.NotFound(w, r)
		}
	})
}

// decode enforces POST + bounded JSON body into v, answering the error
// itself when the request is malformed.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
	if err := dec.Decode(v); err != nil {
		msg := err.Error()
		code := http.StatusBadRequest
		if strings.Contains(msg, "request body too large") {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "bad request: "+msg, code)
		return false
	}
	return true
}

// require 400s when a decoded request misses mandatory fields.
func require(w http.ResponseWriter, ok bool) bool {
	if !ok {
		http.Error(w, "bad request: missing key/worker", http.StatusBadRequest)
	}
	return ok
}

// reply writes v as JSON.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
