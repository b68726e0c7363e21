// Package httpxtest holds the admission-contract checks shared by the
// fuzz targets of the serve tier and the sweep dispatcher.
package httpxtest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"fcdpm/internal/config"
	"fcdpm/internal/httpx"
)

// ScenarioSeeds returns the shipped scenario specs under root/scenarios.
func ScenarioSeeds(f *testing.F, root string) [][]byte {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join(root, "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	var out [][]byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		out = append(out, b)
	}
	return out
}

// SpecVerdict is the config package's own judgement of one spec: nil
// when it loads, validates, canonicalizes, and keys.
func SpecVerdict(raw []byte, engine string) error {
	spec, err := config.LoadValidated(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	_, err = spec.CacheKey(engine)
	return err
}

// SweepVerdict judges a sweep body the way admission must: one strict
// decode of {"name", "scenarios"}, 1..maxCells cells, and every cell a
// valid spec.
func SweepVerdict(body []byte, engine string, maxCells int) error {
	var req struct {
		Name      string            `json:"name"`
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return err
	}
	if len(req.Scenarios) == 0 || len(req.Scenarios) > maxCells {
		return fmt.Errorf("%d cells", len(req.Scenarios))
	}
	for i, raw := range req.Scenarios {
		if err := SpecVerdict(raw, engine); err != nil {
			return fmt.Errorf("scenario %d: %w", i, err)
		}
	}
	return nil
}

// CheckDrainingAdmission asserts the admission contract for one answer
// of a draining service whose body bound is limit: the body is the JSON
// error document; a spec the verdict rejects answers 400, or 413 past
// the bound; an accepted spec answers the draining 503 with
// Retry-After. Nothing else — no 500, no other 5xx — is allowed.
func CheckDrainingAdmission(t *testing.T, rec *httptest.ResponseRecorder, bodyLen int, limit int64, verdict error) {
	t.Helper()
	var doc httpx.Error
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || doc.Error == "" {
		t.Fatalf("answer %d is not the JSON error document: %q", rec.Code, rec.Body.Bytes())
	}
	switch rec.Code {
	case 400:
		if verdict == nil {
			t.Fatalf("valid spec answered 400: %s", doc.Error)
		}
	case 413:
		if int64(bodyLen) <= limit {
			t.Fatalf("%d-byte body answered 413 under a %d-byte bound", bodyLen, limit)
		}
	case 503:
		if rec.Header().Get("Retry-After") == "" {
			t.Fatalf("503 without Retry-After: %s", doc.Error)
		}
		if verdict != nil {
			t.Fatalf("rejected spec (%v) answered 503, want 400 or 413", verdict)
		}
	default:
		t.Fatalf("answered %d (%s), want 400, 413 or the draining 503", rec.Code, doc.Error)
	}
}
