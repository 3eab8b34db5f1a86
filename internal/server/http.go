package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/ormkit/incmap/internal/fault"
	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/obsv"
	"github.com/ormkit/incmap/internal/workload"
)

// Handler returns the daemon's HTTP handler: the v1 API, health probes
// and debug surfaces, wrapped in request accounting and a last-resort
// panic recovery so no request — however malformed — can kill the
// process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				mHandlerPanics.Add(1)
				writeError(w, &apiError{
					status: http.StatusInternalServerError,
					msg:    fmt.Sprintf("internal error: %v", rec),
				})
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()

	// Liveness: the process is up. Always 200 — even draining, the
	// daemon is still finishing work and must not be killed early.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// Readiness: whether new work is admitted. Flips to 503 the moment
	// Drain begins so load balancers stop routing here.
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			writeError(w, errDraining)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})

	mux.HandleFunc("GET /v1/tenants", s.handleList)
	mux.HandleFunc("POST /v1/tenants/{name}", s.authorized(s.handleRegister))
	mux.HandleFunc("GET /v1/tenants/{name}", s.handleStatus)
	mux.HandleFunc("GET /v1/tenants/{name}/views", s.handleViews)
	mux.HandleFunc("POST /v1/tenants/{name}/evolve", s.authorized(s.handleEvolve))
	mux.HandleFunc("POST /v1/tenants/{name}/rollout", s.authorized(s.handleRolloutPost))
	mux.HandleFunc("GET /v1/tenants/{name}/rollout", s.handleRolloutGet)
	mux.HandleFunc("POST /v1/tenants/{name}/data", s.authorized(s.handleDataPost))
	mux.HandleFunc("GET /v1/tenants/{name}/data", s.handleDataGet)
	mux.HandleFunc("GET /v1/config", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.ConfigStatus())
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, obsv.Snapshot())
	})
	obsv.PublishExpvar()
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("GET /debug/trace", s.handleTrace)
	return mux
}

// registerRequest is the POST /v1/tenants/{name} body. Exactly one of
// Model (a modelio mapping document) or Workload (a synthetic model spec,
// convenient for soak drivers) must be set.
type registerRequest struct {
	Model    json.RawMessage `json:"model,omitempty"`
	Workload *workloadSpec   `json:"workload,omitempty"`
	Budget   *budgetSpec     `json:"budget,omitempty"`
}

type workloadSpec struct {
	// Kind is "chain" (the Figure 8 chain; Prefix namespaces it per
	// tenant) or "paper" (the Fig. 1 mapping).
	Kind   string `json:"kind"`
	Prefix string `json:"prefix,omitempty"`
	N      int    `json:"n,omitempty"`
}

type budgetSpec struct {
	MaxContainments int64 `json:"maxContainments,omitempty"`
	MaxWallTimeMs   int64 `json:"maxWallTimeMs,omitempty"`
}

func (b *budgetSpec) toBudget() fault.Budget {
	if b == nil {
		return fault.Budget{}
	}
	return fault.Budget{
		MaxContainments: b.MaxContainments,
		MaxWallTime:     time.Duration(b.MaxWallTimeMs) * time.Millisecond,
	}
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req registerRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	m, err := resolveModel(&req)
	if err != nil {
		writeError(w, err)
		return
	}
	st, rerr := s.Register(r.Context(), name, m, req.Budget.toBudget())
	if rerr != nil {
		writeError(w, rerr)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

// resolveModel turns the register body into a mapping.
func resolveModel(req *registerRequest) (*frag.Mapping, error) {
	switch {
	case req.Model != nil && req.Workload != nil:
		return nil, &apiError{status: http.StatusBadRequest, msg: "provide model or workload, not both"}
	case req.Model != nil:
		mm, derr := modelio.Decode(bytes.NewReader(req.Model))
		if derr != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("decoding model: %v", derr)}
		}
		return mm, nil
	case req.Workload != nil:
		return resolveWorkload(req.Workload)
	default:
		return nil, &apiError{status: http.StatusBadRequest, msg: "missing model or workload"}
	}
}

func resolveWorkload(ws *workloadSpec) (*frag.Mapping, error) {
	switch ws.Kind {
	case "chain":
		n := ws.N
		if n <= 0 {
			n = 10
		}
		if ws.Prefix != "" {
			mm, err := workload.TenantE(ws.Prefix, n)
			if err != nil {
				return nil, &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
			}
			return mm, nil
		}
		mm, err := workload.ChainE(n)
		if err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
		}
		return mm, nil
	case "paper":
		mm, err := workload.PaperFullE()
		if err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: err.Error()}
		}
		return mm, nil
	default:
		return nil, &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf("unknown workload kind %q", ws.Kind)}
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.tenants))
	for name, t := range s.tenants {
		if t != nil {
			names = append(names, name)
		}
	}
	s.mu.RUnlock()
	sort.Strings(names)
	out := make([]*TenantStatus, 0, len(names))
	for _, name := range names {
		if t, ok := s.lookup(name); ok {
			out = append(out, t.status())
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"tenants": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	writeJSON(w, http.StatusOK, t.status())
}

// viewsResponse is a read: the serving generation's view names plus the
// status that says exactly how fresh that generation is. Reads always
// succeed — a failed evolve shows up here as stale=true, never as a 5xx.
type viewsResponse struct {
	*TenantStatus
	Types  []string `json:"types"`
	Assocs []string `json:"assocs"`
	Tables []string `json:"tables"`
}

func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	head, st := t.read()
	resp := viewsResponse{
		TenantStatus: st,
		Types:        sortedKeys(head.V.Query),
		Assocs:       sortedKeys(head.V.Assoc),
		Tables:       sortedKeys(head.V.Update),
	}
	writeJSON(w, http.StatusOK, &resp)
}

// evolveRequest is the POST /v1/tenants/{name}/evolve body: a wire SMO
// (see smojson.go) plus an optional per-request timeout tighter than the
// server's.
type evolveRequest struct {
	WireSMO
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
}

func (s *Server) handleEvolve(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	var req evolveRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	op, err := req.WireSMO.ToSMO()
	if err != nil {
		writeError(w, err)
		return
	}
	timeout := s.cfg().evolveTimeout
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	st, aerr := t.Evolve(ctx, op)
	if aerr != nil {
		// Degraded, not dead: the error response carries the tenant's
		// serving status so the client sees what generation it still has.
		writeErrorWithStatus(w, aerr, st)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.opts.Sink == nil {
		writeError(w, &apiError{status: http.StatusNotFound, msg: "tracing not enabled"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obsv.WriteChromeTrace(w, s.opts.Sink.Spans())
}

// --- helpers ------------------------------------------------------------

func notFound(name string) *apiError {
	return &apiError{status: http.StatusNotFound, msg: fmt.Sprintf("unknown tenant %q", name)}
}

// decodeBody parses a JSON request body, bounding it so a hostile client
// cannot balloon the daemon's memory.
func decodeBody(r *http.Request, into any) *apiError {
	const maxBody = 16 << 20 // generous: chain-1002 models are ~1 MB
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf("reading body: %v", err)}
	}
	if len(body) > maxBody {
		return &apiError{status: http.StatusRequestEntityTooLarge, msg: "body exceeds 16 MiB"}
	}
	if err := json.Unmarshal(body, into); err != nil {
		return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf("parsing body: %v", err)}
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is every error response's shape; Status rides along on
// degraded evolves so clients need no follow-up read.
type errorBody struct {
	Error  string        `json:"error"`
	Status *TenantStatus `json:"status,omitempty"`
}

// writeError renders any error as JSON; non-apiErrors (which should not
// reach here) become opaque 500s.
func writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		ae = &apiError{status: http.StatusInternalServerError, msg: err.Error()}
	}
	writeErrorWithStatus(w, ae, nil)
}

func writeErrorWithStatus(w http.ResponseWriter, e *apiError, st *TenantStatus) {
	if e.retryAfter > 0 {
		secs := int64(e.retryAfter / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, e.status, errorBody{Error: e.msg, Status: st})
}

// sortedKeys returns the sorted keys of any string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
