package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
)

// The generated inputs are a pure function of (workload, seed): every
// random draw comes from a PCG stream keyed by the seed, the workload
// name and a stream number, never from the clock. The system under test
// only ever sees the JSON these functions return.

// families are the six trace generators a scenario can name.
var families = []string{"camcorder", "synthetic", "bursty", "heavytail", "dvs", "racksurge"}

// policies are the four source policies the specs draw from.
var policies = []string{"fcdpm", "conv", "asap", "flat"}

// capacities is the storage axis of a sweep grid (A·s). With the four
// policies it gives 48 distinct cells; 16 duplicates make 64.
var capacities = []float64{2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20}

const (
	// gridCells is one sweep grid: exactly the server's maxBatchLanes,
	// so a serve-sweep is one BatchRunner chunk.
	gridCells = 64
	// dispatchGrids is how many grids one dispatch-sweep concatenates.
	dispatchGrids = 4
	// dvsLevels is the operating-point count of the DVS trace processor.
	dvsLevels = 5
	// sweepDuration is the trace length of every sweep cell, seconds.
	sweepDuration = 1800
	// repeatShare is the share of serve-runs requests that repeat an
	// earlier spec.
	repeatShare = 0.5
	// popularitySkew shapes which earlier spec a repeat picks: rank =
	// n·u^skew, so the oldest specs are the most popular.
	popularitySkew = 3
	// timedSeedSpan and warmSeedBase keep timed and warm-up trace seeds
	// in disjoint ranges, so warm-up never fills the timed keys.
	timedSeedSpan = 1 << 40
	warmSeedBase  = 1 << 41
)

// Stream numbers separate the draws of one workload.
const (
	streamRuns = iota + 1
	streamWarm
	streamRotation
	streamGrid
)

// newRNG returns the PCG stream for (seed, workload, stream).
func newRNG(seed uint64, workload string, stream uint64) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return rand.New(rand.NewPCG(seed^h.Sum64(), stream))
}

// specDoc is the subset of a scenario spec the benchmark varies; every
// other field takes the program's defaults.
type specDoc struct {
	Name    string      `json:"name"`
	Storage *storageDoc `json:"storage,omitempty"`
	Trace   traceDoc    `json:"trace"`
	Policy  policyDoc   `json:"policy"`
}

type storageDoc struct {
	CapacityAs float64 `json:"capacityAs"`
}

type traceDoc struct {
	Kind     string  `json:"kind"`
	Seed     uint64  `json:"seed,omitempty"`
	Duration float64 `json:"duration"`
	Level    int     `json:"level,omitempty"`
}

type policyDoc struct {
	Kind string `json:"kind"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and numbers reach here
	}
	return b
}

// traceFor draws the trace of one family: a fresh seed (the DVS trace
// has none; it draws an operating point instead).
func traceFor(rng *rand.Rand, family string, duration float64, seedBase uint64) traceDoc {
	t := traceDoc{Kind: family, Duration: duration}
	if family == "dvs" {
		t.Level = rng.IntN(dvsLevels)
	} else {
		t.Seed = seedBase + 1 + rng.Uint64N(timedSeedSpan-1)
	}
	return t
}

// runsInputs is the serve-runs schedule: request i is due i·interval
// after the window opens and sends specs[ops[i]].
type runsInputs struct {
	specs [][]byte
	ops   []int
	// first marks a spec's first request, which must be a cache miss.
	first []bool
}

// genRuns draws n requests over all six families, durations of
// 120–1800 s and four policies. About repeatShare of them repeat an
// earlier spec with skewed popularity; the rest are new, distinctly
// named specs. warm draws the disjoint warm-up set.
func genRuns(seed uint64, n int, warm bool) runsInputs {
	stream, prefix, seedBase := uint64(streamRuns), "run", uint64(0)
	if warm {
		stream, prefix, seedBase = streamWarm, "warm", warmSeedBase
	}
	rng := newRNG(seed, "serve-runs", stream)
	in := runsInputs{ops: make([]int, n), first: make([]bool, n)}
	for i := range in.ops {
		if len(in.specs) > 0 && rng.Float64() < repeatShare {
			in.ops[i] = int(float64(len(in.specs)) * math.Pow(rng.Float64(), popularitySkew))
			continue
		}
		fam := families[rng.IntN(len(families))]
		dur := float64(120 + rng.IntN(1681))
		doc := specDoc{
			Name:   fmt.Sprintf("%s-%06d", prefix, len(in.specs)),
			Trace:  traceFor(rng, fam, dur, seedBase),
			Policy: policyDoc{Kind: policies[rng.IntN(len(policies))]},
		}
		in.ops[i], in.first[i] = len(in.specs), true
		in.specs = append(in.specs, mustJSON(doc))
	}
	return in
}

// genGrid builds one 64-cell sweep grid: every cell shares one fresh
// 1800 s trace of the given family; cells are policy × capacity, and
// every fourth cell repeats its neighbour verbatim (same name, same
// key), so duplicate-lane collapse has work. Cell names carry the grid
// label, so keys never collide across grids.
func genGrid(rng *rand.Rand, label, family string, seedBase uint64) [][]byte {
	tr := traceFor(rng, family, sweepDuration, seedBase)
	cells := make([][]byte, 0, gridCells)
	for _, pol := range policies {
		for _, c := range capacities {
			cell := mustJSON(specDoc{
				Name:    fmt.Sprintf("%s-%s-%s-c%g", label, family, pol, c),
				Storage: &storageDoc{CapacityAs: c},
				Trace:   tr,
				Policy:  policyDoc{Kind: pol},
			})
			cells = append(cells, cell)
			if len(cells)%4 == 3 {
				cells = append(cells, cell)
			}
		}
	}
	return cells
}

// familyOffset rotates which family a workload's first grid uses.
func familyOffset(seed uint64, workload string) int {
	return newRNG(seed, workload, streamRotation).IntN(len(families))
}

// genSweep returns sweep idx of a sweep workload: one grid for
// serve-sweep, dispatchGrids grids for dispatch-sweep. The trace family
// rotates grid by grid. warm draws from the disjoint warm-up set.
func genSweep(seed uint64, workload string, idx int, warm bool) [][]byte {
	grids, prefix, seedBase := 1, "s", uint64(0)
	if workload == "dispatch-sweep" {
		grids = dispatchGrids
	}
	stream := uint64(streamGrid)
	if warm {
		prefix, seedBase, stream = "w", warmSeedBase, streamWarm
	}
	rng := newRNG(seed, workload, stream<<32|uint64(idx))
	off := familyOffset(seed, workload)
	var cells [][]byte
	for g := 0; g < grids; g++ {
		fam := families[(idx*grids+g+off)%len(families)]
		cells = append(cells, genGrid(rng, fmt.Sprintf("%s%05d.%d", prefix, idx, g), fam, seedBase)...)
	}
	return cells
}

// sweepBody renders the POST /v1/sweeps body, the shape both the
// server and the dispatcher accept.
func sweepBody(name string, cells [][]byte) []byte {
	raw := make([]json.RawMessage, len(cells))
	for i, c := range cells {
		raw[i] = c
	}
	return mustJSON(struct {
		Name      string            `json:"name"`
		Scenarios []json.RawMessage `json:"scenarios"`
	}{name, raw})
}
