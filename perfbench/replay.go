package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"time"

	"fcdpm/internal/cache"
	"fcdpm/internal/config"
	"fcdpm/internal/dvs"
	"fcdpm/internal/runreport"
	"fcdpm/internal/sim"
	"fcdpm/internal/workload"
)

// Replay sizes: enough calls for steady means, few enough that the
// traced run stays well inside its time limit.
const (
	replaySpecs     = 128
	replayDiskPuts  = 32
	replayBatchRuns = 3
	// Replay spans take op ids from these bases, clear of the
	// workload's own operation numbers in the spans file.
	replayOpBase = 1_000_000
	batchOpBase  = 2_000_000
)

// replay times the traced run's library layers single-threaded, after
// the timed window, on the workload's own generated inputs: a sample of
// its distinct specs through config, workload, sim, runreport and a
// memory- and disk-tier cache.Store, and up to replayBatchRuns sweep
// grids through sim.BatchRunner. It returns the replay's per-layer
// metrics.
func replay(ctx context.Context, tr *tracer, specs [][]byte, grids [][][]byte, engine, dir string) (map[string]float64, error) {
	if len(specs) > replaySpecs {
		specs = specs[:replaySpecs]
	}
	mem, err := cache.New(64<<20, "", nil)
	if err != nil {
		return nil, err
	}
	disk, err := cache.New(-1, filepath.Join(dir, "replay-cache"), nil)
	if err != nil {
		return nil, err
	}
	var nsPerSlot, buildSelf []float64
	for i, spec := range specs {
		op := replayOpBase + i
		root := tr.begin("replay", op, -1)
		step := func(name string, f func() error) error {
			id := tr.begin(name, op, root)
			err := f()
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replay %s: %w", name, err)
			}
			return nil
		}
		var (
			sc   *config.Scenario
			key  string
			cfg  sim.Config
			res  *sim.Result
			body []byte
		)
		err := step("config.load_validate", func() (err error) {
			sc, err = config.LoadValidated(bytes.NewReader(spec))
			return err
		})
		if err == nil {
			err = step("config.cache_key", func() (err error) { key, err = sc.CacheKey(engine); return err })
		}
		if err == nil {
			err = step("config.normalize", func() error { _, err := sc.Normalized(); return err })
		}
		// Build contains the trace generation, so Build's own cost is
		// the difference. Generating before and after Build and taking
		// the faster keeps one cold or interrupted call from swamping a
		// difference of a few microseconds.
		var gen [2]time.Duration
		var build time.Duration
		timed := func(d *time.Duration, name string, f func() error) {
			if err == nil {
				t0 := time.Now()
				err = step(name, f)
				*d = time.Since(t0)
			}
		}
		timed(&gen[0], "workload.trace_gen", func() error { _, err := traceGen(sc.Trace); return err })
		timed(&build, "config.build", func() (err error) { cfg, err = sc.Build(); return err })
		timed(&gen[1], "workload.trace_gen", func() error { _, err := traceGen(sc.Trace); return err })
		buildSelf = append(buildSelf, us(build-min(gen[0], gen[1])))
		var runDur time.Duration
		if err == nil {
			t0 := time.Now()
			err = step("sim.run", func() (err error) { res, err = sim.RunContext(ctx, cfg); return err })
			runDur = time.Since(t0)
		}
		if err == nil {
			err = step("runreport.render", func() (err error) { body, err = runreport.Render(sc.Name, key, engine, res); return err })
		}
		if err == nil {
			err = step("cache.put", func() error { mem.Put(key, body); return nil })
		}
		if err == nil {
			err = step("cache.get", func() error {
				if _, ok := mem.Get(key); !ok {
					return fmt.Errorf("key %s not found", key)
				}
				return nil
			})
		}
		if err == nil && i < replayDiskPuts {
			err = step("cache.disk_put", func() error { disk.Put(key, body); return nil })
		}
		tr.end(root)
		if err != nil {
			return nil, err
		}
		if res.Slots > 0 {
			nsPerSlot = append(nsPerSlot, float64(runDur.Nanoseconds())/float64(res.Slots))
		}
	}
	for g := 0; g < len(grids) && g < replayBatchRuns; g++ {
		lanes := make([]sim.Lane, 0, len(grids[g]))
		for _, cell := range grids[g] {
			sc, err := config.LoadValidated(bytes.NewReader(cell))
			if err != nil {
				return nil, err
			}
			key, err := sc.CacheKey(engine)
			if err != nil {
				return nil, err
			}
			cfg, err := sc.Build()
			if err != nil {
				return nil, err
			}
			lanes = append(lanes, sim.Lane{Cfg: cfg, Key: key})
		}
		id := tr.begin("sim.batch_run", batchOpBase+g, -1)
		b, err := sim.NewBatchRunner(lanes)
		if err == nil {
			_, err = b.RunContext(ctx)
		}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("replay sim.batch_run: %w", err)
		}
	}

	rows := tr.rows()
	m := make(map[string]float64)
	mean := func(name string) float64 { v, _ := meanUs(rows, name); return v }
	m["config.load_validate_us"] = mean("config.load_validate")
	m["config.cache_key_us"] = mean("config.cache_key")
	m["config.normalize_us"] = mean("config.normalize")
	m["config.build_self_us"] = median(buildSelf)
	m["workload.trace_gen_us"] = mean("workload.trace_gen")
	m["cache.get_us"] = mean("cache.get")
	m["cache.put_us"] = mean("cache.put")
	m["cache.disk_put_ms"] = mean("cache.disk_put") / 1e3
	m["sim.run_us"] = mean("sim.run")
	m["sim.ns_per_slot"] = median(nsPerSlot)
	m["sim.batch_run_ms"] = mean("sim.batch_run") / 1e3
	m["runreport.render_us"] = mean("runreport.render")
	return m, nil
}

// traceGen calls the spec's trace generator directly, with the
// parameters config.Build resolves, so Build's own cost can be told
// apart from trace generation.
func traceGen(t config.TraceSpec) (*workload.Trace, error) {
	seedOr := func(def uint64) uint64 {
		if t.Seed != 0 {
			return t.Seed
		}
		return def
	}
	durOr := func(def float64) float64 {
		if t.Duration > 0 {
			return t.Duration
		}
		return def
	}
	switch strings.ToLower(t.Kind) {
	case "", "camcorder":
		c := workload.DefaultCamcorderConfig()
		c.Seed, c.Duration = seedOr(c.Seed), durOr(c.Duration)
		return workload.Camcorder(c)
	case "synthetic":
		c := workload.DefaultSyntheticConfig()
		c.Seed, c.Duration = seedOr(c.Seed), durOr(c.Duration)
		return workload.Synthetic(c)
	case "bursty":
		c := workload.DefaultBurstyConfig()
		c.Seed, c.Duration = seedOr(c.Seed), durOr(c.Duration)
		return workload.Bursty(c)
	case "heavytail":
		c := workload.DefaultHeavyTailConfig()
		c.Seed, c.Duration = seedOr(c.Seed), durOr(c.Duration)
		return workload.HeavyTail(c)
	case "racksurge":
		c := workload.DefaultRackSurgeConfig()
		c.Seed, c.Duration = seedOr(c.Seed), durOr(c.Duration)
		if t.Intensity != 0 {
			c.Intensity = t.Intensity
		}
		return workload.RackSurge(c)
	case "dvs":
		task := dvs.Task{Cycles: 1e8, Period: 1, Jobs: int(math.Ceil(durOr(28 * 60)))}
		return dvs.XScale600().Trace(task, t.Level)
	}
	return nil, fmt.Errorf("trace kind %q has no generator", t.Kind)
}
