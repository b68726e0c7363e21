package config

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScenarioCanonical drives the admission path every submitted spec
// takes in the dispatcher and the server: JSON → LoadValidated →
// Normalized → Canonical → CacheKey. Under any input it must not panic,
// and a rejected spec must come back as an error. For an accepted spec,
// normalization is idempotent, and decoding the canonical bytes and
// keying them again yields the same cache key.
func FuzzScenarioCanonical(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"trace":{"kind":"Camcorder"},"policy":{"kind":"FCDPM"},"runner":{"workers":3}}`))
	f.Add([]byte(`{"system":{"stacks":4,"alloc":"WaterFill","degrade":[0,0.3]},"trace":{"kind":"racksurge","intensity":2}}`))
	f.Add([]byte(`{"predict":{"rho":9}}`))

	const engine = "fuzz-engine"
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadValidated(bytes.NewReader(data))
		if err != nil {
			return // rejected up front: an error, not a panic
		}
		n, err := s.Normalized()
		if err != nil {
			return // rejected at normalization: still an error
		}
		n2, err := n.Normalized()
		if err != nil {
			t.Fatalf("normalizing a normalized spec failed: %v", err)
		}
		b1, err1 := json.Marshal(n)
		b2, err2 := json.Marshal(n2)
		if err1 != nil || err2 != nil {
			t.Fatalf("encode normalized spec: %v / %v", err1, err2)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalized is not idempotent:\nonce:  %s\ntwice: %s", b1, b2)
		}

		canon, err := s.Canonical()
		if err != nil {
			t.Fatalf("Canonical failed on a normalizable spec: %v", err)
		}
		key, err := s.CacheKey(engine)
		if err != nil {
			t.Fatalf("CacheKey failed on a normalizable spec: %v", err)
		}
		again, err := LoadValidated(bytes.NewReader(canon))
		if err != nil {
			t.Fatalf("canonical bytes do not load back: %v\n%s", err, canon)
		}
		key2, err := again.CacheKey(engine)
		if err != nil {
			t.Fatalf("re-keying the canonical spec failed: %v\n%s", err, canon)
		}
		if key != key2 {
			t.Fatalf("cache key changed across a canonical round trip\nspec:  %s\ncanon: %s", data, canon)
		}
	})
}
