// Package wire is a handler whose surface the client beside it and the
// README use in part: TestWireGateOnTestdata names what is left unused.
package wire

import (
	"encoding/json"
	"net/http"
)

const tokenHeader = "X-Token"

// Item travels only on the wire.
type Item struct {
	Name string `json:"name"` // the client decodes a "name" and reads it
	Size int    `json:"size"` // unused: no decoder names it
}

// Listing is served on a route a README line requests.
type Listing struct {
	Names []string `json:"names"`
}

type Server struct{}

func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /items/{id}", s.handleItem)
	mux.HandleFunc("POST /items/{id}/approve", s.handleApprove)
	mux.HandleFunc("GET /files/{name...}", s.handleFile)
	mux.HandleFunc("GET /list", s.handleList)
	mux.HandleFunc("GET /debug", s.handleList) // unused: no client calls it
	return mux
}

func (s *Server) handleItem(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(tokenHeader) == "" {
		http.Error(w, "no token", http.StatusForbidden)
		return
	}
	_ = r.URL.Query().Get("verbose") // unused: no request carries it
	_ = r.Header.Get("X-Trace")      // unused: nothing sets it
	w.Header().Set("ETag", `"1"`)
	w.Header().Set("X-Served-By", "a") // unused: nothing reads it
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(Item{Name: r.PathValue("id"), Size: 1})
}

func (s *Server) handleApprove(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleFile(w http.ResponseWriter, r *http.Request) {
	_, _ = w.Write([]byte(r.PathValue("name")))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	names := []string{r.URL.Query().Get("prefix"), r.Header.Get("X-Cursor")}
	_ = json.NewEncoder(w).Encode(Listing{Names: names})
}
