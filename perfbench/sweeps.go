package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

const (
	sweepsEndpoint = "POST /v1/sweeps"
	// dispatchHitFetches is about how many cached result fetches make
	// the dispatch-sweep hit percentiles, enough for ten beyond the p99;
	// dispatchResubmits is how many sweeps are submitted again to check
	// the dispatcher's cached admission.
	dispatchHitFetches = 1000
	dispatchResubmits  = 3
	// cacheCheckBytes is a quarter of the server's default 64 MiB
	// result cache: the report bytes of the latest sweeps that
	// serve-sweep checks are still cached.
	cacheCheckBytes = 16 << 20
	// workerName is fixed so the worker's idle-poll backoff jitter, which
	// the program derives from the name, is the same in every run.
	workerName = "perfbench-workd"
)

// sweepRun is one submitted sweep and what came back.
type sweepRun struct {
	cells [][]byte
	// cellLat is, per cell or shard event, the time from submission to
	// the event's arrival.
	cellLat []time.Duration
	// states and cached are the per-event resolutions, in arrival order.
	states []string
	cached []bool
	// out is the final sweep report (serve) or the result rows (dispatch).
	out []byte
	// firstResult is the dispatcher's accepted-to-first-shard time.
	firstResult time.Duration
	id          string
	reclaimed   int
	wall        time.Duration
	traced      bool
	verified    bool
	err         error
}

// rotation is one whole turn of the trace-family rotation in a closed
// loop: sweeps [from, to), their wall time and the SUT CPU they cost.
// Sweep metrics are taken per rotation and the median reported.
type rotation struct {
	from, to int
	wall     time.Duration
	cpu      float64
}

// span opens a client span when the operation is traced.
func (b *bench) span(traced bool, name string, op, parent int) int {
	if !traced {
		return -1
	}
	return b.tr.begin(name, op, parent)
}

// sweepEvent is the subset of either tier's NDJSON event line the
// benchmark reads.
type sweepEvent struct {
	Ts     string `json:"ts"`
	Kind   string `json:"kind"`
	Status string `json:"status"` // server
	State  string `json:"state"`  // dispatcher
	Cached bool   `json:"cached"`
}

// submitSweep posts one sweep and follows its event stream until the
// sweep resolves; with fetch set it then reads the outcome from that
// path under the sweep's URL. cellKind names the tier's per-cell event.
func (b *bench) submitSweep(ctx context.Context, base string, op int, cells [][]byte, traced bool, cellKind, fetch string) *sweepRun {
	r := &sweepRun{cells: cells, traced: traced}
	root := b.span(traced, "sweep", op, -1)
	defer b.tr.end(root)
	t0 := time.Now()
	defer func() { r.wall = time.Since(t0) }()

	id := b.span(traced, sweepsEndpoint, op, root)
	resp, err := do(ctx, b.hc, http.MethodPost, base+"/v1/sweeps", sweepBody(fmt.Sprintf("sweep-%d", op), cells))
	b.tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	if resp.code != http.StatusAccepted {
		r.err = fmt.Errorf("POST /v1/sweeps: http %d: %s", resp.code, resp.body)
		return r
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp.body, &acc); err != nil {
		r.err = fmt.Errorf("POST /v1/sweeps: %w", err)
		return r
	}
	r.id = acc.ID

	var accepted, first time.Time
	id = b.span(traced, "GET /v1/sweeps/{id}/events", op, root)
	err = streamLines(ctx, b.hc, base+"/v1/sweeps/"+acc.ID+"/events", func(line []byte, at time.Time) bool {
		var ev sweepEvent
		if json.Unmarshal(line, &ev) != nil {
			return true
		}
		switch ev.Kind {
		case "accepted":
			accepted, _ = time.Parse(time.RFC3339Nano, ev.Ts)
		case cellKind:
			if first.IsZero() {
				first, _ = time.Parse(time.RFC3339Nano, ev.Ts)
			}
			r.cellLat = append(r.cellLat, at.Sub(t0))
			r.states = append(r.states, ev.Status+ev.State)
			r.cached = append(r.cached, ev.Cached)
		case "reclaimed":
			r.reclaimed++
		case "resolved":
			return false
		}
		return true
	})
	b.tr.end(id)
	if err != nil {
		r.err = err
		return r
	}
	if !accepted.IsZero() && !first.IsZero() {
		r.firstResult = first.Sub(accepted)
	}
	if fetch != "" {
		b.fetchOutcome(ctx, base, r, op, root, fetch)
	}
	return r
}

// fetchOutcome reads a resolved sweep's outcome from path under its URL
// into r.out.
func (b *bench) fetchOutcome(ctx context.Context, base string, r *sweepRun, op, parent int, path string) {
	if r.err != nil {
		return
	}
	id := b.span(r.traced, "GET /v1/sweeps/{id}"+path, op, parent)
	res, err := do(ctx, b.hc, http.MethodGet, base+"/v1/sweeps/"+r.id+path, nil)
	b.tr.end(id)
	switch {
	case err != nil:
		r.err = err
	case res.code != 200:
		r.err = fmt.Errorf("GET sweep %s%s: http %d: %s", r.id, path, res.code, res.body)
	default:
		r.out = res.body
	}
}

// closedLoop runs sweeps back to back, one in flight, in whole turns of
// the trace-family rotation (period sweeps each), so every family
// weighs the same in every run, until seconds have passed. It records
// each rotation's wall time and the CPU the processes ps spent on it.
func (b *bench) closedLoop(ctx context.Context, seconds, period int, ps []*proc, next func(i int, traced bool) *sweepRun) ([]*sweepRun, []rotation, error) {
	var runs []*sweepRun
	var rots []rotation
	start := time.Now()
	for time.Since(start) < time.Duration(seconds)*time.Second {
		cpu0, err := sutCPU(ps)
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		rot := rotation{from: len(runs)}
		for k := 0; k < period; k++ {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
			i := len(runs)
			runs = append(runs, next(i, b.tr != nil && traceCoin(i)))
		}
		cpu1, err := sutCPU(ps)
		if err != nil {
			return nil, nil, err
		}
		rot.to, rot.wall, rot.cpu = len(runs), time.Since(t0), cpu1-cpu0
		rots = append(rots, rot)
	}
	return runs, rots, nil
}

// rotationMetrics sets the sweep workloads' metrics from the timed
// window: cells_per_s over verified cells and the per-cell miss latency
// percentiles per rotation, and cpu_ms_per_op over the whole window (a
// rotation's CPU is too few /proc clock ticks to resolve).
func rotationMetrics(m map[string]float64, runs []*sweepRun, rots []rotation) {
	var rate []float64
	var lat [][]float64
	var cpu float64
	cells := 0
	for _, rot := range rots {
		verified := 0
		var l []float64
		for _, r := range runs[rot.from:rot.to] {
			cells += len(r.cells)
			if r.verified {
				verified += len(r.cells)
			}
			l = append(l, msList(r.cellLat)...)
		}
		rate = append(rate, float64(verified)/rot.wall.Seconds())
		cpu += rot.cpu
		lat = append(lat, l)
	}
	m["cells_per_s"] = median(rate)
	m["cpu_ms_per_op"] = cpu * 1e3 / float64(cells)
	m["e2e.miss_p50_ms"] = medianOfQuantiles(lat, 0.5)
	m["e2e.miss_p99_ms"] = medianOfQuantiles(lat, 0.99)
}

// sweepCells lists every cell of the runs, duplicates included.
func sweepCells(runs []*sweepRun) [][]byte {
	var all [][]byte
	for _, r := range runs {
		all = append(all, r.cells...)
	}
	return all
}

// overheadShare compares time per cell of traced and untraced sweeps.
func overheadShare(runs []*sweepRun) float64 {
	var wall [2]time.Duration
	var cells [2]int
	for _, r := range runs {
		k := 0
		if r.traced {
			k = 1
		}
		wall[k] += r.wall
		cells[k] += len(r.cells)
	}
	plain := ratio(wall[0].Seconds(), float64(cells[0]))
	return ratio(ratio(wall[1].Seconds(), float64(cells[1])), plain) - 1
}

// distinct drops repeated specs, keeping first-seen order.
func distinct(specs [][]byte) [][]byte {
	seen := make(map[string]bool)
	var out [][]byte
	for _, s := range specs {
		if !seen[string(s)] {
			seen[string(s)] = true
			out = append(out, s)
		}
	}
	return out
}

// gridsOf splits the runs' cells into their 64-cell grids.
func gridsOf(runs []*sweepRun) [][][]byte {
	var grids [][][]byte
	for _, r := range runs {
		for g := 0; g+gridCells <= len(r.cells); g += gridCells {
			grids = append(grids, r.cells[g:g+gridCells])
		}
	}
	return grids
}

// checkEvents fails a sweep whose cell events are not one per cell,
// each in the wanted state. With cached, every cell must come from the
// cache; without, at most maxCached may (a duplicate cell can resolve
// from its twin's result).
func checkEvents(out *outcome, r *sweepRun, i int, state string, cached bool, maxCached int) {
	if len(r.states) != len(r.cells) {
		out.fail(len(r.cells), "sweep %d: %d cell events for %d cells", i, len(r.states), len(r.cells))
		return
	}
	n := 0
	for j := range r.states {
		if r.states[j] != state || (cached && !r.cached[j]) {
			out.fail(1, "sweep %d event %d: %s cached=%v, want %s", i, j, r.states[j], r.cached[j], state)
		}
		if r.cached[j] {
			n++
		}
	}
	if !cached && n > maxCached {
		out.fail(n-maxCached, "sweep %d: %d cells came from the cache, at most %d may", i, n, maxCached)
	}
}

// serveSweep is the batched-sweep workload: closed-loop 64-cell sweeps
// against `fcdpm serve`, each one BatchRunner chunk over one fresh trace.
func serveSweep(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	const wl = "serve-sweep"
	srv, base, setupS, err := b.launchServe(ctx, func(base string) error {
		for i := range families {
			if r := b.submitSweep(ctx, base, -1-i, genSweep(b.opts.seed, wl, i, true), false, "cell", ""); r.err != nil {
				return fmt.Errorf("warm-up sweep: %w", r.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.sut = [][]string{append([]string{"fcdpm"}, srv.args...)}
	out.metrics["setup_s"] = setupS

	var before, after serveScrape
	if b.tr != nil {
		if before, err = b.scrapeServe(ctx, base); err != nil {
			return nil, err
		}
	}
	// A sweep's final report is fetched only once the next sweep has
	// finished: a GET sent the moment the event stream closes can still
	// find the job pending, and the pending document has another schema
	// (a ROADMAP defect this benchmark leaves in view, not decoded).
	var prev *sweepRun
	runs, rots, err := b.closedLoop(ctx, b.opts.seconds, len(families), []*proc{srv}, func(i int, traced bool) *sweepRun {
		r := b.submitSweep(ctx, base, i, genSweep(b.opts.seed, wl, i, false), traced, "cell", "")
		if prev != nil {
			b.fetchOutcome(ctx, base, prev, i-1, -1, "")
		}
		prev = r
		return r
	})
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		if after, err = b.scrapeServe(ctx, base); err != nil {
			return nil, err
		}
	}

	// Verify: every cell of every final report is done, uncached, under
	// the oracle's key; then every distinct cell, fetched again as a
	// single run, is a byte-identical cache hit.
	cells := sweepCells(runs)
	oracle, err := newOracleSet(ctx, cells, b.engine)
	if err != nil {
		return nil, err
	}
	b.fetchOutcome(ctx, base, prev, len(runs)-1, -1, "")
	for i, r := range runs {
		out.attempted += len(r.cells)
		if r.err != nil {
			out.fail(len(r.cells), "sweep %d: %v", i, r.err)
			continue
		}
		var rep struct {
			Cells []struct {
				Key    string `json:"key"`
				Status string `json:"status"`
				Cached bool   `json:"cached"`
			} `json:"cells"`
		}
		if err := json.Unmarshal(r.out, &rep); err != nil || len(rep.Cells) != len(r.cells) {
			out.fail(len(r.cells), "sweep %d: report has no matching cells array (%v)", i, err)
			continue
		}
		failedBefore := out.failed
		checkEvents(out, r, i, "done", false, 0)
		for j, c := range rep.Cells {
			if c.Status != "done" || c.Cached || c.Key != oracle[string(r.cells[j])].key {
				out.fail(1, "sweep %d cell %d: status %s cached=%v key %s", i, j, c.Status, c.Cached, c.Key)
			}
		}
		r.verified = out.failed == failedBefore
	}
	// The cache checks and the hit path cover the latest sweeps the
	// server's LRU result cache must still hold; a faster program fills
	// the cache with more sweeps, and may rightly evict the older ones.
	recent := recentRuns(runs, oracle, cacheCheckBytes)
	if err := b.refetch(ctx, base, out, distinct(sweepCells(recent)), oracle); err != nil {
		return nil, err
	}
	// The hit path: each of those sweeps submitted again resolves at
	// admission from the cache.
	var hits [][]float64
	for i, r := range recent {
		again := b.submitSweep(ctx, base, len(runs)+i, r.cells, false, "cell", "")
		out.attempted += len(again.cells)
		if again.err != nil {
			out.fail(len(again.cells), "sweep %d submitted again: %v", i, again.err)
			continue
		}
		checkEvents(out, again, i, "done", true, 0)
		hits = append(hits, msList(again.cellLat))
	}
	rss, err := sutPeakRSS([]*proc{srv})
	if err != nil {
		return nil, err
	}

	m := out.metrics
	rotationMetrics(m, runs, rots)
	m["e2e.hit_p50_ms"] = medianOfQuantiles(hits, 0.5)
	m["e2e.hit_p99_ms"] = medianOfQuantiles(hits, 0.99)
	m["peak_rss_mb"] = rss
	if !b.opts.trace {
		return out, nil
	}

	var clientMs []float64
	for _, row := range b.tr.rows() {
		if row.Name == sweepsEndpoint {
			clientMs = append(clientMs, row.DurUs/1e3)
		}
	}
	rm, err := replay(ctx, b.tr, distinct(cells), gridsOf(runs), b.engine, b.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	serveLayers(m, before, after, float64(len(cells)), sweepsEndpoint, mean(clientMs))
	m["sim.distinct_lane_ratio"] = float64(len(distinct(cells))) / float64(len(cells))
	m["bench.lag_p50_ms"], m["bench.lag_p99_ms"] = 0, 0 // closed loop: no schedule to lag
	m["bench.trace_overhead_share"] = overheadShare(runs)
	dispatchAbsent(m)
	return out, nil
}

// recentRuns returns the latest runs whose distinct report bodies total
// at most budget bytes.
func recentRuns(runs []*sweepRun, oracle oracleSet, budget int) []*sweepRun {
	seen := make(map[string]bool)
	used := 0
	for k := len(runs) - 1; k >= 0; k-- {
		for _, c := range runs[k].cells {
			if !seen[string(c)] {
				seen[string(c)] = true
				used += len(oracle[string(c)].body)
			}
		}
		if used > budget {
			return runs[k+1:]
		}
	}
	return runs
}

// refetch posts every spec again as a single run over maxConns
// connections. Each must be a byte-identical cache hit.
func (b *bench) refetch(ctx context.Context, base string, out *outcome, specs [][]byte, oracle oracleSet) error {
	bad := make([]string, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				r, err := do(ctx, b.hc, http.MethodPost, base+"/v1/runs", specs[i])
				e := oracle[string(specs[i])]
				switch {
				case err != nil:
					bad[i] = err.Error()
				case r.code != 200 || r.hdr.Get("X-Fcdpm-Cache") != "hit":
					bad[i] = fmt.Sprintf("http %d cache %q", r.code, r.hdr.Get("X-Fcdpm-Cache"))
				case !bodyMatches(r.body, e.body):
					bad[i] = "body differs from the oracle"
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	out.attempted += len(specs)
	for i, why := range bad {
		if why != "" {
			out.fail(1, "re-fetch of %s: %s", specs[i], why)
		}
	}
	return nil
}

// startDispatch launches `fcdpm dispatchd` on a fresh state directory
// and, once it is healthy, one `fcdpm workd` with a metrics address.
func (b *bench) startDispatch(ctx context.Context, k int) ([]*proc, string, string, error) {
	dAddr, err := freeAddr()
	if err != nil {
		return nil, "", "", err
	}
	d, err := b.start("dispatchd", "dispatchd", "-addr", dAddr, "-state", filepath.Join(b.dir, fmt.Sprintf("state-%d", k)))
	if err != nil {
		return nil, "", "", err
	}
	dBase := "http://" + dAddr
	if err := waitHealthy(ctx, b.hc, dBase+"/healthz", d); err != nil {
		return nil, "", "", err
	}
	wAddr, err := freeAddr()
	if err != nil {
		return nil, "", "", err
	}
	w, err := b.start("workd", "workd", "-dispatcher", dBase, "-addr", wAddr, "-name", workerName)
	if err != nil {
		return nil, "", "", err
	}
	wBase := "http://" + wAddr
	return []*proc{d, w}, dBase, wBase, waitHealthy(ctx, b.hc, wBase+"/healthz", w)
}

// dispatchSweep is the durable-fabric workload: closed-loop 256-cell
// sweeps through `fcdpm dispatchd` and one `fcdpm workd`.
func dispatchSweep(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	const wl = "dispatch-sweep"
	var dBase, wBase string
	ps, setupS, err := b.launch(ctx, func(k int) ([]*proc, error) {
		ps, d, w, err := b.startDispatch(ctx, k)
		if err != nil {
			return nil, err
		}
		dBase, wBase = d, w
		if r := b.submitSweep(ctx, dBase, -1, genSweep(b.opts.seed, wl, 0, true), false, "shard", "/results"); r.err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", r.err)
		}
		return ps, nil
	})
	if err != nil {
		return nil, err
	}
	if err := b.checkEngine(ctx, dBase); err != nil {
		return nil, err
	}
	for _, p := range ps {
		out.sut = append(out.sut, append([]string{"fcdpm"}, p.args...))
	}
	out.metrics["setup_s"] = setupS

	var dBefore, dAfter, wBefore, wAfter map[string]float64
	if b.tr != nil {
		if dBefore, err = scrape(ctx, b.hc, dBase+"/metrics"); err == nil {
			wBefore, err = scrape(ctx, b.hc, wBase+"/metrics")
		}
		if err != nil {
			return nil, err
		}
	}
	// Grids rotate through the six families four at a time, so three
	// sweeps make a whole rotation.
	runs, rots, err := b.closedLoop(ctx, b.opts.seconds, 3, ps, func(i int, traced bool) *sweepRun {
		return b.submitSweep(ctx, dBase, i, genSweep(b.opts.seed, wl, i, false), traced, "shard", "/results")
	})
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		if dAfter, err = scrape(ctx, b.hc, dBase+"/metrics"); err == nil {
			wAfter, err = scrape(ctx, b.hc, wBase+"/metrics")
		}
		if err != nil {
			return nil, err
		}
	}

	// Verify: the result rows of every sweep equal the oracle's rows in
	// submission order and every shard completed; then every sweep,
	// submitted again, resolves wholly from the cache with the same rows.
	cells := sweepCells(runs)
	oracle, err := newOracleSet(ctx, cells, b.engine)
	if err != nil {
		return nil, err
	}
	verify := func(i int, r *sweepRun, cached bool) {
		out.attempted += len(r.cells)
		if r.err != nil {
			out.fail(len(r.cells), "sweep %d: %v", i, r.err)
			return
		}
		failedBefore := out.failed
		checkEvents(out, r, i, "completed", cached, len(r.cells)-len(distinct(r.cells)))
		rows := bytes.SplitAfter(r.out, []byte("\n"))
		for j, c := range r.cells {
			if j >= len(rows) || !bodyMatches(rows[j], oracle[string(c)].body) {
				out.fail(1, "sweep %d row %d differs from the oracle", i, j)
			}
		}
		if len(rows) != len(r.cells)+1 || len(rows[len(r.cells)]) != 0 {
			out.fail(1, "sweep %d: %d result rows for %d cells", i, len(rows)-1, len(r.cells))
		}
		if r.reclaimed > 0 {
			out.fail(r.reclaimed, "sweep %d: %d shards reclaimed", i, r.reclaimed)
		}
		r.verified = out.failed == failedBefore
	}
	for i, r := range runs {
		verify(i, r, false)
	}
	// The hit path: every sweep's rows are fetched again, served from the
	// result cache, dispatchHitFetches times in all; each fetch must
	// equal the oracle rows. The first sweeps are also submitted again
	// and must resolve wholly from the cache.
	var hits []float64
	per := (dispatchHitFetches + len(runs) - 1) / len(runs)
	for i, r := range runs {
		var want []byte
		for _, c := range r.cells {
			want = append(append(want, oracle[string(c)].body...), '\n')
		}
		for k := 0; k < per; k++ {
			out.attempted++
			t0 := time.Now()
			res, err := do(ctx, b.hc, http.MethodGet, dBase+"/v1/sweeps/"+r.id+"/results", nil)
			hits = append(hits, ms(time.Since(t0)))
			if err != nil || res.code != 200 || !bytes.Equal(res.body, want) {
				out.fail(1, "sweep %d: rows fetched again differ from the oracle (http %d, %v)", i, res.code, err)
			}
		}
		if i < dispatchResubmits {
			verify(i, b.submitSweep(ctx, dBase, len(runs)+i, r.cells, false, "shard", "/results"), true)
		}
	}
	final, err := scrape(ctx, b.hc, dBase+"/metrics")
	if err != nil {
		return nil, err
	}
	for _, c := range []string{"fcdpm_dispatch_shards_reclaimed_total", "fcdpm_dispatch_duplicate_completions_total"} {
		if v := final[c]; v != 0 {
			out.fail(int(v), "%s = %v, want 0", c, v)
		}
	}
	rss, err := sutPeakRSS(ps)
	if err != nil {
		return nil, err
	}

	m := out.metrics
	rotationMetrics(m, runs, rots)
	m["e2e.hit_p50_ms"] = quantile(hits, 0.5)
	m["e2e.hit_p99_ms"] = quantile(hits, 0.99)
	m["peak_rss_mb"] = rss
	if !b.opts.trace {
		return out, nil
	}

	rm, err := replay(ctx, b.tr, distinct(cells), gridsOf(runs), b.engine, b.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	rows := b.tr.rows()
	submitUs, _ := meanUs(rows, sweepsEndpoint)
	resultsUs, _ := meanUs(rows, "GET /v1/sweeps/{id}/results")
	var first []float64
	for _, r := range runs {
		first = append(first, ms(r.firstResult))
	}
	n := float64(len(cells))
	dd := func(name string) float64 { return delta(dBefore, dAfter, name) }
	wd := func(name string) float64 { return delta(wBefore, wAfter, name) }
	m["dispatch.submit_ms"] = submitUs / 1e3
	m["dispatch.results_ms"] = resultsUs / 1e3
	m["dispatch.first_result_ms"] = mean(first)
	m["dispatch.shard_mean_ms"] = ratio(dd("fcdpm_dispatch_shard_seconds_sum"), dd("fcdpm_dispatch_shard_seconds_count")) * 1e3
	m["dispatch.leased_per_shard"] = wd("fcdpm_workd_shards_leased_total") / n
	m["dispatch.push_retries"] = wd("fcdpm_workd_push_retries_total")
	hitsD, missesD := dd("fcdpm_cache_hits_total"), dd("fcdpm_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hitsD, hitsD+missesD)
	m["runner.tasks_per_op"] = wd("fcdpm_pool_tasks_submitted_total") / n
	m["sim.server_run_mean_ms"] = ratio(wd("fcdpm_sim_run_seconds_sum"), wd("fcdpm_sim_run_seconds_count")) * 1e3
	m["sim.distinct_lane_ratio"] = float64(len(distinct(cells))) / n
	m["sim.batch_avg_lanes"] = 0 // the worker runs every shard on the scalar path
	for _, k := range []string{"server.runs_handler_mean_ms", "server.sweeps_handler_mean_ms", "server.client_gap_ms",
		"server.sim_share", "server.coalesced_ratio", "server.shed_ratio"} {
		m[k] = 0 // no simulation server in this tier
	}
	m["bench.lag_p50_ms"], m["bench.lag_p99_ms"] = 0, 0 // closed loop: no schedule to lag
	m["bench.trace_overhead_share"] = overheadShare(runs)
	return out, nil
}
