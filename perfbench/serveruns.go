package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// runsRate is the serve-runs open-loop arrival rate, requests per
	// second, at fixed intervals: about 70% of the closed-loop miss-only
	// capacity of two connections on a 2-CPU machine. Ten seeds at
	// 1000/s spread the SUT's CPU per request by 0.14 of the median,
	// against 0.05 at 1500/s: idle virtual CPUs wake slowly on a shared
	// host, and the wake-ups cost CPU too.
	runsRate     = 1500
	runsInterval = time.Second / runsRate
	// runsWarmRequests of disjoint-seed requests warm each SUT instance.
	runsWarmRequests = 500
	// runsSubWindow splits the timed window. Percentiles are taken per
	// sub-window and the median across them is reported. Two seconds
	// hold about 1500 hits, so a sub-window's p99 has ten samples beyond
	// it.
	runsSubWindow = 2 * time.Second
	// maxLagP50Ms invalidates a run whose generator sent its requests a
	// median of more than this late: well under the ~0.1 ms a cache hit
	// takes, so lateness cannot hide in the hit percentiles.
	maxLagP50Ms = 0.05
)

// runsEndpoint is the route serve-runs drives.
const runsEndpoint = "POST /v1/runs"

// runRec is one serve-runs request.
type runRec struct {
	// lat is measured from the request's due time to its last byte;
	// client from its send.
	lat, client time.Duration
	// lag is how late the generator sent: after the due time, or after
	// the connection came free if that was later.
	lag    time.Duration
	code   int
	tag    string
	key    string
	body   []byte
	err    error
	traced bool
}

// startServe launches `fcdpm serve` with default flags on a free
// loopback port and waits until it is healthy.
func (b *bench) startServe(ctx context.Context) (*proc, string, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, "", err
	}
	p, err := b.start("serve", "serve", "-addr", addr)
	if err != nil {
		return nil, "", err
	}
	base := "http://" + addr
	return p, base, waitHealthy(ctx, b.hc, base+"/healthz", p)
}

// launchServe brings `fcdpm serve` up and warms it setupLaunches times
// and returns the last instance, its base URL and the median set-up
// time.
func (b *bench) launchServe(ctx context.Context, warm func(base string) error) (*proc, string, float64, error) {
	var base string
	ps, setupS, err := b.launch(ctx, func(int) ([]*proc, error) {
		p, url, err := b.startServe(ctx)
		if err != nil {
			return nil, err
		}
		base = url
		return []*proc{p}, warm(base)
	})
	if err != nil {
		return nil, "", 0, err
	}
	return ps[0], base, setupS, b.checkEngine(ctx, base)
}

// traceCoin picks, deterministically, which operations of a traced run
// carry client spans; the rest measure the same path untraced, which
// gives the tracing overhead.
func traceCoin(i int) bool {
	x := uint64(i) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return (x^x>>31)&1 == 1
}

// openLoop sends in.ops on the fixed schedule over maxConns keep-alive
// connections. A request whose connections are all busy at its due
// time waits, and that wait counts in its latency. It returns the
// records and the time from the first due time to the last reply.
func (b *bench) openLoop(ctx context.Context, base string, in runsInputs, traced bool) ([]runRec, time.Duration, error) {
	recs := make([]runRec, len(in.ops))
	var next atomic.Int64
	url := base + "/v1/runs"
	start := time.Now().Add(5 * time.Millisecond)
	var mu sync.Mutex
	last := start
	var pacerErr error
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc, err := newPacer()
			if err == nil {
				defer pc.close()
			}
			for err == nil && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(in.ops) {
					return
				}
				due := start.Add(time.Duration(i) * runsInterval)
				free := time.Now()
				if err = pc.sleepUntil(due); err != nil {
					break
				}
				sent := time.Now()
				rec := &recs[i]
				rec.lag = sent.Sub(due)
				if free.After(due) {
					rec.lag = sent.Sub(free)
				}
				rec.traced = traced && traceCoin(i)
				id := -1
				if rec.traced {
					id = b.tr.begin(runsEndpoint, i, -1)
				}
				r, err := do(ctx, b.hc, http.MethodPost, url, in.specs[in.ops[i]])
				done := time.Now()
				b.tr.end(id)
				rec.lat, rec.client = done.Sub(due), done.Sub(sent)
				rec.code, rec.body, rec.err = r.code, r.body, err
				if err == nil {
					rec.tag, rec.key = r.hdr.Get("X-Fcdpm-Cache"), r.hdr.Get("X-Fcdpm-Key")
				}
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
			if err != nil {
				mu.Lock()
				pacerErr = err
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	return recs, last.Sub(start), pacerErr
}

// serveRuns is the per-request workload: open-loop synchronous
// POST /v1/runs, about half of them repeats (cache hits).
func serveRuns(ctx context.Context, b *bench) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	tGen := time.Now()
	in := genRuns(b.opts.seed, b.opts.seconds*runsRate, false)
	warm := genRuns(b.opts.seed, runsWarmRequests, true)
	exp, err := oracleAll(ctx, in.specs, b.engine)
	if err != nil {
		return nil, err
	}
	genS := time.Since(tGen).Seconds()
	srv, base, setupS, err := b.launchServe(ctx, func(base string) error {
		recs, _, err := b.openLoop(ctx, base, warm, false)
		if err != nil {
			return err
		}
		for i, r := range recs {
			if r.err != nil || r.code != 200 {
				return fmt.Errorf("warm-up request %d: http %d: %v %s", i, r.code, r.err, r.body)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.sut = [][]string{append([]string{"fcdpm"}, srv.args...)}
	out.metrics["setup_s"] = genS + setupS

	var before, after serveScrape
	if b.tr != nil {
		if before, err = b.scrapeServe(ctx, base); err != nil {
			return nil, err
		}
	}
	cpu0, err := sutCPU([]*proc{srv})
	if err != nil {
		return nil, err
	}
	recs, window, err := b.openLoop(ctx, base, in, b.tr != nil)
	if err != nil {
		return nil, err
	}
	cpu1, err := sutCPU([]*proc{srv})
	if err != nil {
		return nil, err
	}
	if b.tr != nil {
		if after, err = b.scrapeServe(ctx, base); err != nil {
			return nil, err
		}
	}
	rss, err := sutPeakRSS([]*proc{srv})
	if err != nil {
		return nil, err
	}

	// Check every reply against the oracle. Per distinct spec exactly
	// one request may miss; the others hit the cache or coalesce onto
	// the in-flight run, whichever order they arrived in.
	subs := int(time.Duration(len(recs)) * runsInterval / runsSubWindow)
	hits, misses := make([][]float64, subs), make([][]float64, subs)
	var lags, tracedHits, plainHits, clientMs []float64
	missesPerSpec := make([]int, len(in.specs))
	ok := 0
	for i, r := range recs {
		e := exp[in.ops[i]]
		lags = append(lags, ms(r.lag))
		switch {
		case r.err != nil:
			out.fail(1, "request %d: %v", i, r.err)
			continue
		case r.code != 200:
			out.fail(1, "request %d: http %d: %s", i, r.code, r.body)
			continue
		case !bodyMatches(r.body, e.body) || r.key != e.key:
			out.fail(1, "request %d: body differs from the oracle", i)
			continue
		}
		k := int(time.Duration(i) * runsInterval / runsSubWindow)
		inSub := k < subs
		switch r.tag {
		case "hit":
			if inSub {
				hits[k] = append(hits[k], ms(r.lat))
			}
			if r.traced {
				tracedHits = append(tracedHits, ms(r.lat))
			} else {
				plainHits = append(plainHits, ms(r.lat))
			}
		case "miss", "coalesced":
			if r.tag == "miss" {
				missesPerSpec[in.ops[i]]++
			}
			if inSub {
				misses[k] = append(misses[k], ms(r.lat))
			}
		default:
			out.fail(1, "request %d: cache tag %q", i, r.tag)
			continue
		}
		if r.traced {
			clientMs = append(clientMs, ms(r.client))
		}
		ok++
	}
	for s, n := range missesPerSpec {
		if n > 1 {
			out.fail(n-1, "spec %d missed the cache %d times", s, n)
		}
	}
	out.attempted = len(recs)
	lagP50 := quantile(lags, 0.5)
	if lagP50 > maxLagP50Ms {
		out.invalid = append(out.invalid, fmt.Sprintf("generator lag p50 %.3f ms exceeds %.3f ms", lagP50, maxLagP50Ms))
	}
	if len(plainHits)+len(tracedHits) == 0 || ok == len(plainHits)+len(tracedHits) {
		return nil, fmt.Errorf("window saw no hits or no misses; it needs both")
	}

	if subs < 1 {
		return nil, fmt.Errorf("--seconds must cover at least one %v sub-window", runsSubWindow)
	}
	m := out.metrics
	m["e2e.hit_p50_ms"] = medianOfQuantiles(hits, 0.5)
	m["e2e.hit_p99_ms"] = medianOfQuantiles(hits, 0.99)
	m["e2e.miss_p50_ms"] = medianOfQuantiles(misses, 0.5)
	m["e2e.miss_p99_ms"] = medianOfQuantiles(misses, 0.99)
	m["cells_per_s"] = float64(ok) / window.Seconds()
	m["cpu_ms_per_op"] = (cpu1 - cpu0) * 1e3 / float64(ok)
	m["peak_rss_mb"] = rss
	if !b.opts.trace {
		return out, nil
	}

	rm, err := replay(ctx, b.tr, in.specs, nil, b.engine, b.dir)
	if err != nil {
		return nil, err
	}
	for k, v := range rm {
		m[k] = v
	}
	serveLayers(m, before, after, float64(len(recs)), runsEndpoint, mean(clientMs))
	m["sim.distinct_lane_ratio"] = float64(len(in.specs)) / float64(len(in.ops))
	m["bench.lag_p50_ms"] = lagP50
	m["bench.lag_p99_ms"] = quantile(lags, 0.99)
	m["bench.trace_overhead_share"] = ratio(median(tracedHits), median(plainHits)) - 1
	m["sim.batch_run_ms"] = 0 // no sweep grids in this workload
	dispatchAbsent(m)
	return out, nil
}

// bodyMatches reports whether an HTTP body is the oracle's report plus
// the newline the server appends.
func bodyMatches(got, want []byte) bool {
	return len(got) == len(want)+1 && got[len(want)] == '\n' && bytes.Equal(got[:len(want)], want)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// serveScrape is one look at the server's own instruments.
type serveScrape struct {
	prom  map[string]float64
	stats struct {
		Batch struct {
			Batches    float64 `json:"batches"`
			LanesTotal float64 `json:"lanesTotal"`
		} `json:"batch"`
	}
}

func (b *bench) scrapeServe(ctx context.Context, base string) (serveScrape, error) {
	var s serveScrape
	var err error
	if s.prom, err = scrape(ctx, b.hc, base+"/metrics"); err != nil {
		return s, err
	}
	return s, getJSON(ctx, b.hc, base+"/v1/stats", &s.stats)
}

// endpointSeries names the server's latency histogram series for a route.
func endpointSeries(route, suffix string) string {
	return fmt.Sprintf("fcdpm_http_request_seconds_%s{endpoint=%q}", suffix, route)
}

// serveLayers derives the server-side per-layer metrics from the scrapes
// taken around the timed window. ops is the number of requests or cells
// in the window, front the route the workload posts to, and clientMs
// the mean client-side span of that route.
func serveLayers(m map[string]float64, before, after serveScrape, ops float64, front string, clientMs float64) {
	d := func(name string) float64 { return delta(before.prom, after.prom, name) }
	handlerMs := func(route string) float64 {
		return ratio(d(endpointSeries(route, "sum")), d(endpointSeries(route, "count"))) * 1e3
	}
	m["server.runs_handler_mean_ms"] = handlerMs(runsEndpoint)
	m["server.sweeps_handler_mean_ms"] = handlerMs(sweepsEndpoint)
	m["server.client_gap_ms"] = clientMs - handlerMs(front)
	// Simulation time as a share of POST /v1/runs handler time; sweeps
	// simulate outside their handler, so on them it stays 0.
	m["server.sim_share"] = ratio(d("fcdpm_sim_run_seconds_sum"), d(endpointSeries(runsEndpoint, "sum")))
	m["server.coalesced_ratio"] = d("fcdpm_server_runs_coalesced_total") / ops
	m["server.shed_ratio"] = d("fcdpm_server_runs_shed_total") / ops
	hits, misses := d("fcdpm_cache_hits_total"), d("fcdpm_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["runner.tasks_per_op"] = d("fcdpm_pool_tasks_submitted_total") / ops
	m["sim.server_run_mean_ms"] = ratio(d("fcdpm_sim_run_seconds_sum"), d("fcdpm_sim_run_seconds_count")) * 1e3
	lanes := after.stats.Batch.LanesTotal - before.stats.Batch.LanesTotal
	m["sim.batch_avg_lanes"] = ratio(lanes, after.stats.Batch.Batches-before.stats.Batch.Batches)
}

// dispatchAbsent records the dispatcher-tier layer metrics as 0 on a
// workload that never reaches that tier.
func dispatchAbsent(m map[string]float64) {
	for _, k := range []string{"dispatch.submit_ms", "dispatch.results_ms", "dispatch.first_result_ms",
		"dispatch.shard_mean_ms", "dispatch.leased_per_shard", "dispatch.push_retries"} {
		m[k] = 0
	}
}
