package dispatch

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"fcdpm/internal/httpx/httpxtest"
)

// FuzzSweepPost posts fuzzed bodies to the dispatcher's POST /v1/sweeps
// and checks the admission contract (httpxtest.CheckDrainingAdmission).
// The dispatcher is ephemeral and drained: admission decodes, validates,
// canonicalizes and keys every spec as in service, but an accepted sweep
// answers 503 instead of queueing, so fuzzing holds no sweep state.
func FuzzSweepPost(f *testing.F) {
	const limit = 4 << 10
	seeds := httpxtest.ScenarioSeeds(f, "../..")
	for _, b := range seeds {
		f.Add([]byte(`{"name":"seed","scenarios":[` + string(b) + `]}`))
	}
	f.Add([]byte(`{"scenarios":[` + string(bytes.Join(seeds, []byte(","))) + `]}`))
	f.Add([]byte(`{"scenarios":[]}`))
	f.Add([]byte(`{"scenarios":[{}],"extra":1}`))
	f.Add([]byte(`{"scenarios":[{"trace":{"kind":"nope"}}]}`))
	f.Add([]byte(`{"name":"` + strings.Repeat("x", limit) + `","scenarios":[{}]}`))
	d, err := New(Options{MaxBodyBytes: limit})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { d.Close() })
	d.drain()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		d.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
		httpxtest.CheckDrainingAdmission(t, rec, len(body), limit,
			httpxtest.SweepVerdict(body, d.engine, maxSweepShards))
	})
}
