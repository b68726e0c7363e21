package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"fcdpm/internal/config"
)

// inputDigest hashes every input a workload generates for one seed.
func inputDigest(t *testing.T, workload string, seed uint64) [32]byte {
	t.Helper()
	h := sha256.New()
	if workload == "serve-runs" {
		for _, warm := range []bool{false, true} {
			in := genRuns(seed, 3000, warm)
			for _, s := range in.specs {
				h.Write(s)
			}
			b, _ := json.Marshal([]any{in.ops, in.first})
			h.Write(b)
		}
	} else {
		for i := 0; i < 8; i++ {
			for _, warm := range []bool{false, true} {
				for _, c := range genSweep(seed, workload, i, warm) {
					h.Write(c)
				}
			}
		}
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func TestInputsArePureFunctionOfWorkloadAndSeed(t *testing.T) {
	for wl := range workloads {
		a, b := inputDigest(t, wl, 7), inputDigest(t, wl, 7)
		if a != b {
			t.Errorf("%s: seed 7 generated different inputs on two calls", wl)
		}
		if inputDigest(t, wl, 8) == a {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", wl)
		}
	}
}

func TestRunsScheduleShape(t *testing.T) {
	in := genRuns(1, 10000, false)
	warm := genRuns(1, 1000, true)
	share := float64(len(in.specs)) / float64(len(in.ops))
	if share < 0.45 || share > 0.55 {
		t.Errorf("distinct share %.3f, want about %.2f", share, 1-repeatShare)
	}
	seen := make(map[string]bool)
	for i, op := range in.ops {
		if in.first[i] != !seen[string(in.specs[op])] {
			t.Fatalf("request %d: first=%v disagrees with the schedule", i, in.first[i])
		}
		seen[string(in.specs[op])] = true
	}
	if len(seen) != len(in.specs) {
		t.Errorf("%d distinct specs generated, %d listed", len(seen), len(in.specs))
	}
	for _, s := range warm.specs {
		if seen[string(s)] {
			t.Fatalf("warm-up spec %s is also a timed spec", s)
		}
	}
}

func TestGridShape(t *testing.T) {
	for _, wl := range []string{"serve-sweep", "dispatch-sweep"} {
		cells := genSweep(3, wl, 5, false)
		want := gridCells
		if wl == "dispatch-sweep" {
			want *= dispatchGrids
		}
		if len(cells) != want {
			t.Fatalf("%s: %d cells, want %d", wl, len(cells), want)
		}
		if d := len(distinct(cells)); d*4 != len(cells)*3 {
			t.Errorf("%s: %d distinct of %d cells, want three in four", wl, d, len(cells))
		}
	}
}

// TestSpecsBuildAndTraceGenMatches checks that every family the
// generators use validates and builds, and that traceGen reproduces the
// trace Build makes, which the config.build_self_us attribution needs.
func TestSpecsBuildAndTraceGenMatches(t *testing.T) {
	var specs [][]byte
	for i := 0; i < len(families); i++ {
		specs = append(specs, genSweep(9, "serve-sweep", i, false)[0])
	}
	specs = append(specs, genRuns(9, 40, false).specs...)
	for _, s := range specs {
		sc, err := config.LoadValidated(bytes.NewReader(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		cfg, err := sc.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", s, err)
		}
		tr, err := traceGen(sc.Trace)
		if err != nil {
			t.Fatalf("%s: trace: %v", s, err)
		}
		if !reflect.DeepEqual(tr.Slots, cfg.Trace.Slots) {
			t.Errorf("%s: traceGen differs from the trace Build makes", s)
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := span{ID: 0, Parent: -1, start: at(0), end: at(100)}
	kids := []span{
		{Parent: 0, start: at(10), end: at(30)},
		{Parent: 0, start: at(20), end: at(40)},  // overlaps the first
		{Parent: 0, start: at(90), end: at(120)}, // clipped at the parent's end
	}
	if got, want := covered(parent, kids), 40*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v", got, want)
	}
}
