package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"
	"testing"

	"github.com/ormkit/incmap/internal/frag"
	"github.com/ormkit/incmap/internal/modelio"
	"github.com/ormkit/incmap/internal/workload"
)

// compactModel returns a model's compact mapping document.
func compactModel(t testing.TB, m func() (*frag.Mapping, error)) []byte {
	t.Helper()
	mm, err := m()
	if err != nil {
		t.Fatal(err)
	}
	b, err := modelio.AppendMapping(nil, mm)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerRejectsHostileModels registers model documents the decoder
// refuses and checks each is a 422: a misspelled field, and a key that
// matches its field only when case is folded. Trailing bytes cannot reach
// the model decoder through a well-formed body, since the body decoder
// hands resolveModel exactly one JSON value; a body carrying them is a
// 400, and resolveModel itself answers a model carrying them with a 422.
func TestServerRejectsHostileModels(t *testing.T) {
	_, ts := testDaemon(t, Options{})
	paper := string(compactModel(t, workload.PaperFullE))
	for name, doc := range map[string]string{
		"unknown field":   strings.Replace(paper, `{"client":`, `{"clients":{},"client":`, 1),
		"case-folded key": strings.Replace(paper, `"fragments":`, `"Fragments":`, 1),
	} {
		resp := doJSON(t, "POST", ts.URL+"/v1/tenants/hostile", map[string]any{"model": json.RawMessage(doc)}, nil)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status %d, want 422", name, resp.StatusCode)
		}
	}

	body := `{"model":` + paper + ` ]]] not json}`
	resp, err := http.Post(ts.URL+"/v1/tenants/hostile", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("body with trailing bytes: status %d, want 400", resp.StatusCode)
	}
	_, err = resolveModel(&registerRequest{Model: []byte(paper + "]]] not json")})
	var ae *apiError
	if !errors.As(err, &ae) || ae.status != http.StatusUnprocessableEntity {
		t.Errorf("model with trailing bytes: %v, want a 422", err)
	}

	resp = doJSON(t, "POST", ts.URL+"/v1/tenants/paper", map[string]any{"model": json.RawMessage(paper)}, nil)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("paper model: status %d, want 201", resp.StatusCode)
	}
}

// FuzzRegisterModel feeds arbitrary bytes to resolveModel as a register
// body's model: the result is a mapping that passes CheckWellFormed or an
// apiError with a 4xx status, and nothing panics.
func FuzzRegisterModel(f *testing.F) {
	f.Add(compactModel(f, workload.PaperFullE))
	f.Add(compactModel(f, func() (*frag.Mapping, error) { return workload.ChainE(3) }))
	f.Add([]byte(`{"Client":{}}`))
	f.Add([]byte(`{} ]]]`))
	f.Fuzz(func(t *testing.T, model []byte) {
		m, err := resolveModel(&registerRequest{Model: model})
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) || ae.status < 400 || ae.status >= 500 {
				t.Fatalf("resolveModel error %v is not a 4xx apiError", err)
			}
			return
		}
		if err := m.CheckWellFormed(); err != nil {
			t.Fatalf("resolveModel accepted an ill-formed mapping: %v", err)
		}
	})
}
