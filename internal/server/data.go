package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"

	"github.com/ormkit/incmap/internal/exec"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/orm"
	"github.com/ormkit/incmap/internal/state"
	"github.com/ormkit/incmap/internal/xver"
)

// Per-tenant data plane. The daemon is a mapping compiler, not a database,
// but the rollout engine's guarantees — version-k clients reading and
// writing during and after a rollout, zero data loss across cutover,
// rollback restoring the prior store verbatim — are claims about rows, so
// each tenant carries a small in-memory store state: synthetic entities
// materialized through the serving generation's update views, persisted as
// a manifest so restarts (and mid-backfill crashes) keep it.
//
//	POST /v1/tenants/{name}/data  {"seed": n, "maxPerType": n, "version": "current"|"prev"}
//	GET  /v1/tenants/{name}/data  [?version=prev]
//
// A write generates a random client state for the chosen version's model
// and replaces the tenant's rows with its materialization — version "prev"
// (valid once a rollout has cut over) drives the old generation's update
// views and the cross-version transform, exercising the paper's
// version-k-writer-against-version-k+1-store path. Reads never fail: the
// worst case is row counts against a stale generation.

// dataManifestName keys a tenant's persisted row store.
func dataManifestName(tenant string) string { return "data-" + manifestKey(tenant) }

// manifestKey squeezes a tenant name into the store's 64-char manifest
// alphabet, leaving room for prefixes; long names get a stable digest.
func manifestKey(name string) string {
	if len(name) <= 40 {
		return name
	}
	sum := sha256.Sum256([]byte(name))
	return name[:24] + "-" + hex.EncodeToString(sum[:8])
}

// dataRequest is the POST body.
type dataRequest struct {
	Seed       uint32 `json:"seed"`
	MaxPerType int    `json:"maxPerType,omitempty"`
	// Version selects which generation's model the synthetic writer
	// speaks: "current" (default) or "prev" (the pre-cutover generation,
	// routed through the cross-version write views).
	Version string `json:"version,omitempty"`
}

// dataResponse summarizes the tenant's rows.
type dataResponse struct {
	Tenant     string         `json:"tenant"`
	Generation int64          `json:"generation"`
	Version    string         `json:"version"`
	Tables     map[string]int `json:"tables"`
	TotalRows  int            `json:"totalRows"`
	// Checksum is the SHA-256 of the store's canonical encoding: two
	// identical states always produce the same checksum, so soak drivers
	// compare states across restarts and rollbacks without shipping rows.
	Checksum string `json:"checksum"`
	// Entities (version=prev reads) counts entities per set as the old
	// version sees them through the cross-version read views.
	Entities map[string]int `json:"entities,omitempty"`
	Frozen   bool           `json:"frozen,omitempty"`
}

// dataSnapshot returns a coherent reference to the tenant's data plane.
// The store state itself is treated as immutable once installed (writers
// swap whole states), so sharing the pointers is safe.
func (t *tenant) dataSnapshot() (data, prev *state.StoreState, plan *xver.Plan, frozen bool) {
	t.dataMu.RLock()
	defer t.dataMu.RUnlock()
	return t.data, t.prevData, t.xplan, t.frozen
}

// crossEntities counts entities per set as a version-k client sees the
// store through the cross-version read views, streaming each restricted
// constructor instead of materializing the projected client state.
func crossEntities(plan *xver.Plan, ss *state.StoreState) (map[string]int, error) {
	return plan.CountEntitiesStream(context.Background(), exec.NewMapStore(ss), exec.Options{})
}

// summarize renders a store state for the wire through the streaming
// summarizer (batch-at-a-time scans, order-independent multiset
// checksum).
func summarize(ss *state.StoreState) (map[string]int, int, string) {
	if ss == nil {
		return streamSummarize(context.Background(), nil)
	}
	return streamSummarize(context.Background(), exec.NewMapStore(ss))
}

func (s *Server) handleDataGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	_, st := t.read()
	data, prev, plan, frozen := t.dataSnapshot()
	resp := &dataResponse{Tenant: t.name, Generation: st.Generation, Version: "current", Frozen: frozen}

	if r.URL.Query().Get("version") == "prev" {
		resp.Version = "prev"
		if plan == nil || prev == nil {
			// No cutover has happened: "prev" is just the serving store.
			resp.Tables, resp.TotalRows, resp.Checksum = summarize(data)
			writeJSON(w, http.StatusOK, resp)
			return
		}
		// Version-k client reading the version-k+1 store: counts come
		// through the cross-version read views. Reads never 5xx — a
		// cross-read failure degrades to raw table counts.
		resp.Tables, resp.TotalRows, resp.Checksum = summarize(data)
		if ents, err := crossEntities(plan, data); err == nil {
			resp.Entities = ents
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	resp.Tables, resp.TotalRows, resp.Checksum = summarize(data)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDataPost(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(r.PathValue("name"))
	if !ok {
		writeError(w, notFound(r.PathValue("name")))
		return
	}
	var req dataRequest
	if err := decodeBody(r, &req); err != nil {
		writeError(w, err)
		return
	}
	if req.MaxPerType <= 0 {
		req.MaxPerType = 3
	}
	if req.Version == "" {
		req.Version = "current"
	}
	resp, aerr := t.writeData(req)
	if aerr != nil {
		writeError(w, aerr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeData materializes a synthetic client state into the tenant's store
// through the views the requested version owns.
func (t *tenant) writeData(req dataRequest) (*dataResponse, *apiError) {
	t.dataMu.Lock()
	defer t.dataMu.Unlock()
	if t.frozen {
		return nil, &apiError{
			status: http.StatusConflict,
			msg:    fmt.Sprintf("tenant %q data is frozen for backfill; retry after cutover", t.name),
		}
	}
	head := t.session.Head()

	var next *state.StoreState
	switch req.Version {
	case "current":
		cs := orm.RandomState(head.M, req.Seed, req.MaxPerType)
		ss, err := orm.Materialize(head.M, head.V, cs)
		if err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("materialize: %v", err)}
		}
		next = ss
	case "prev":
		if t.xplan == nil {
			return nil, &apiError{status: http.StatusConflict, msg: "no cross-version plan: tenant has not cut over"}
		}
		// The old version's writer: random state over the OLD model,
		// materialized through the OLD update views, then transformed to
		// the new layout (gap columns filled per strategy).
		cs := orm.RandomState(t.xplan.From.M, req.Seed, req.MaxPerType)
		ss, err := t.xplan.WriteClient(cs)
		if err != nil {
			return nil, &apiError{status: http.StatusUnprocessableEntity, msg: fmt.Sprintf("cross-version write: %v", err)}
		}
		next = ss
	default:
		return nil, &apiError{status: http.StatusBadRequest, msg: strconv.Quote(req.Version) + " is not a version (want current or prev)"}
	}

	t.data = next
	t.persistDataLocked()
	tables, total, sum := summarize(next)
	return &dataResponse{
		Tenant:     t.name,
		Generation: t.generation(head),
		Version:    req.Version,
		Tables:     tables,
		TotalRows:  total,
		Checksum:   sum,
	}, nil
}

// persistDataLocked snapshots the data plane to the store (best-effort;
// the manifest write is checksummed and a damaged record reads as empty).
// Callers hold dataMu.
func (t *tenant) persistDataLocked() {
	if t.srv.opts.Store == nil || t.data == nil {
		return
	}
	if payload, err := modelio.EncodeRows(t.data); err == nil {
		_ = t.srv.opts.Store.SaveManifest(dataManifestName(t.name), payload)
	}
}

// restoreData loads the persisted data plane, if any. Called during tenant
// restore before the daemon serves.
func (t *tenant) restoreData() {
	if t.srv.opts.Store == nil {
		return
	}
	payload, err := t.srv.opts.Store.LoadManifest(dataManifestName(t.name))
	if err != nil {
		return
	}
	if ss, err := modelio.DecodeRows(payload); err == nil {
		t.dataMu.Lock()
		t.data = ss
		t.dataMu.Unlock()
	}
}
