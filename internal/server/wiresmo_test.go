package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzWireSMO sends arbitrary bytes as a POST /v1/tenants/{name}/evolve
// body, through the daemon's handler, to a fresh chain-3 tenant. Every
// answer is a 2xx, or a 4xx whose body is an error; never a 5xx, and
// nothing panics.
func FuzzWireSMO(f *testing.F) {
	for _, body := range []string{
		`{"op":"addEntity","name":"CNew","parent":"CEntity2","attrs":[{"name":"A","type":"string","nullable":true},{"name":"B","type":"int"}]}`,
		`{"op":"addProperty","type":"CEntity3","attr":{"name":"P","type":"bool","nullable":true},"table":"TCEntity3","col":"EntityAtt4"}`,
		`{"op":"addAssociation","name":"CRel","end1":{"type":"CEntity1","mult":"*"},"end2":{"type":"CEntity3","mult":"0..1"}}`,
		`{"op":"addAssociation","name":"CJoin","end1":{"type":"CEntity1","mult":"*"},"end2":{"type":"CEntity2","mult":"*"},"timeoutMs":5000}`,
		`{"op":"dropEntity","name":"CEntity3"}`,
		`{"op":"dropAssociation","name":"CRelOne2"}`,
		`{"op":"addEntity","name":"CNew","parent":"Nowhere"}`,
		`{"op":"addEntity","name":"CEntity1","parent":"CEntity2"}`,
		`{"op":"addEntity","attrs":[{"type":"date"}]}`,
		`{"op":"addAssociation","name":"R","end1":{"type":"CEntity1","mult":"2"},"end2":null}`,
		`{"op":"dropEntity","name":"CEntity1","timeoutMs":-1}`,
		`{"op":"warp"}`,
		`{"op":1}`,
		`[]`,
		`null`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		srv := New(Options{})
		t.Cleanup(func() {
			// Drain stops the tenant's worker goroutine and waits for it.
			if err := srv.Drain(context.Background()); err != nil {
				t.Error(err)
			}
		})
		h := srv.Handler()
		reg := httptest.NewRecorder()
		h.ServeHTTP(reg, httptest.NewRequest("POST", "/v1/tenants/c",
			bytes.NewReader([]byte(`{"workload":{"kind":"chain","prefix":"C","n":3}}`))))
		if reg.Code != http.StatusCreated {
			t.Fatalf("registering the tenant: status %d: %s", reg.Code, reg.Body)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants/c/evolve", bytes.NewReader(body)))
		switch {
		case rec.Code >= 200 && rec.Code < 300:
			var st TenantStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.Name != "c" {
				t.Fatalf("status %d with body %q, want the tenant's status", rec.Code, rec.Body)
			}
		case rec.Code >= 400 && rec.Code < 500:
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error == "" {
				t.Fatalf("status %d with body %q, want an error", rec.Code, rec.Body)
			}
		default:
			t.Fatalf("evolve body %q answered %d: %s", body, rec.Code, rec.Body)
		}
	})
}
