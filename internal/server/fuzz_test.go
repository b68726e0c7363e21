package server

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"fcdpm/internal/httpx/httpxtest"
)

// fuzzBodyLimit is the request bound of the fuzzed server: small enough
// that the fuzzer reaches the 413 path, large enough for every seed.
const fuzzBodyLimit = 4 << 10

// drainedServer builds a server and drains it. Admission then decodes,
// validates and keys every spec exactly as in service, but an accepted
// one answers 503 instead of simulating: a fuzzed trace length is
// unbounded, so the fuzzer must never start a run.
func drainedServer(f *testing.F) *Server {
	s, err := New(Options{Workers: 1, MaxBodyBytes: fuzzBodyLimit})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	return s
}

// FuzzRunPost posts fuzzed bodies to POST /v1/runs?async=1 and checks
// the admission contract (httpxtest.CheckDrainingAdmission).
func FuzzRunPost(f *testing.F) {
	for _, b := range httpxtest.ScenarioSeeds(f, "../..") {
		f.Add(b)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"trace":{"kind":"nope"}}`))
	f.Add([]byte(`{"name":"` + strings.Repeat("x", fuzzBodyLimit) + `"}`))
	s := drainedServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/runs?async=1", bytes.NewReader(body)))
		httpxtest.CheckDrainingAdmission(t, rec, len(body), fuzzBodyLimit, httpxtest.SpecVerdict(body, s.engine))
	})
}

// FuzzSweepPost posts fuzzed bodies to POST /v1/sweeps and checks the
// admission contract.
func FuzzSweepPost(f *testing.F) {
	seeds := httpxtest.ScenarioSeeds(f, "../..")
	for _, b := range seeds {
		f.Add([]byte(`{"name":"seed","scenarios":[` + string(b) + `]}`))
	}
	f.Add([]byte(`{"scenarios":[` + string(bytes.Join(seeds, []byte(","))) + `]}`))
	f.Add([]byte(`{"scenarios":[]}`))
	f.Add([]byte(`{"scenarios":[{}],"extra":1}`))
	f.Add([]byte(`{"scenarios":[{"trace":{"kind":"nope"}}]}`))
	s := drainedServer(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sweeps", bytes.NewReader(body)))
		httpxtest.CheckDrainingAdmission(t, rec, len(body), fuzzBodyLimit,
			httpxtest.SweepVerdict(body, s.engine, maxSweepCells))
	})
}
