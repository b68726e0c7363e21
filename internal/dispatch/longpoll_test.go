package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fcdpm/internal/client"
	"fcdpm/internal/version"
)

// prompt is how soon a parked lease must answer once something wakes
// it: well inside the hold, so a pass cannot be a hold that ran out.
const prompt = leaseHold / 2

type leaseResult struct {
	resp LeaseResponse
	err  error
}

// leaseAsync posts one lease request for worker and delivers its
// outcome on the returned channel.
func leaseAsync(ctx context.Context, base, worker string) <-chan leaseResult {
	out := make(chan leaseResult, 1)
	go func() {
		var resp LeaseResponse
		err := client.PostJSON(ctx, http.DefaultClient, base+"/v1/lease",
			LeaseRequest{Worker: worker, Engine: version.Engine(), Max: 1}, &resp)
		out <- leaseResult{resp, err}
	}()
	return out
}

// waitParked returns once worker's lease request has made its grant
// attempt. The request captures the wake channel in that same critical
// section, so anything the test does afterwards reaches it.
func waitParked(t *testing.T, d *Dispatcher, worker string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		d.mu.Lock()
		_, seen := d.workers[worker]
		d.mu.Unlock()
		if seen {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease from %s never reached the dispatcher", worker)
		}
		time.Sleep(time.Millisecond)
	}
}

// awaitLease receives a lease outcome, failing the test if it takes
// longer than within.
func awaitLease(t *testing.T, res <-chan leaseResult, within time.Duration) leaseResult {
	t.Helper()
	select {
	case r := <-res:
		return r
	case <-time.After(within):
		t.Fatalf("parked lease did not answer within %s", within)
		return leaseResult{}
	}
}

// wantDrain503 asserts a lease answered like a drain-time lease.
func wantDrain503(t *testing.T, r leaseResult) {
	t.Helper()
	var he *client.Error
	if !errors.As(r.err, &he) || he.Code != http.StatusServiceUnavailable {
		t.Fatalf("parked lease on drain: err = %v, want 503", r.err)
	}
	if he.RetryAfter <= 0 {
		t.Fatal("parked lease's drain 503 has no Retry-After")
	}
}

// TestLeaseParksUntilSweepAdmission: a lease against an empty queue
// parks, and the sweep admitted while it waits is granted to it at once
// rather than after the hold.
func TestLeaseParksUntilSweepAdmission(t *testing.T) {
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	res := leaseAsync(context.Background(), ts.URL, "parked")
	waitParked(t, d, "parked")

	var acc SweepAccepted
	httpPostJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Name: "wake",
		Scenarios: []json.RawMessage{scenarioJSON("wake-a", 1)}}, &acc)
	r := awaitLease(t, res, prompt)
	if r.err != nil {
		t.Fatalf("parked lease: %v", r.err)
	}
	if len(r.resp.Shards) != 1 || r.resp.Shards[0].Sweep != acc.ID {
		t.Fatalf("parked lease granted %+v, want the one shard of %s", r.resp.Shards, acc.ID)
	}
}

// TestEmptyGrantAfterHold: with nothing to lease, the request is held
// for leaseHold and then answers an empty 200 without a Retry-After
// hint — the hold itself paces idle polling.
func TestEmptyGrantAfterHold(t *testing.T) {
	_, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	body := `{"worker":"idle","engine":"` + version.Engine() + `","max":1}`
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/lease", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if took := time.Since(start); took < leaseHold {
		t.Fatalf("empty grant answered after %s, want the full %s hold", took, leaseHold)
	}
	var lr LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 || len(lr.Shards) != 0 {
		t.Fatalf("idle lease = HTTP %d %+v, want an empty 200", resp.StatusCode, lr)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		t.Fatalf("empty grant carries Retry-After %q, want none", ra)
	}
}

// TestReclaimWakesParkedLease: an expired lease reclaimed by
// ReclaimExpired (driven by the fake clock) goes straight to a lease
// that was parked on the empty queue.
func TestReclaimWakesParkedLease(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second, Now: clock.Now})
	httpPostJSON(t, ts.URL+"/v1/sweeps", SweepRequest{Name: "reclaim",
		Scenarios: []json.RawMessage{scenarioJSON("reclaim-a", 2)}}, nil)
	var ghost LeaseResponse
	httpPostJSON(t, ts.URL+"/v1/lease", LeaseRequest{Worker: "ghost", Engine: d.engine, Max: 1}, &ghost)
	if len(ghost.Shards) != 1 {
		t.Fatalf("ghost leased %d shards, want 1", len(ghost.Shards))
	}

	res := leaseAsync(context.Background(), ts.URL, "heir")
	waitParked(t, d, "heir")
	clock.Advance(2 * time.Second)
	if n := d.ReclaimExpired(); n != 1 {
		t.Fatalf("ReclaimExpired = %d, want 1", n)
	}
	r := awaitLease(t, res, prompt)
	if r.err != nil {
		t.Fatalf("parked lease: %v", r.err)
	}
	if len(r.resp.Shards) != 1 || r.resp.Shards[0].Lease == ghost.Shards[0].Lease {
		t.Fatalf("heir granted %+v, want the reclaimed shard under a new epoch", r.resp.Shards)
	}
}

// TestCloseAnswersParkedLease: Close wakes a parked lease, which then
// answers 503 + Retry-After exactly as a drain-time lease does.
func TestCloseAnswersParkedLease(t *testing.T) {
	d, ts := newTestDispatcher(t, Options{LeaseTTL: time.Second})
	res := leaseAsync(context.Background(), ts.URL, "parked")
	waitParked(t, d, "parked")
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wantDrain503(t, awaitLease(t, res, prompt))
}

// TestServeDrainAnswersParkedLease: canceling Serve's context drains
// the dispatcher; a parked lease answers 503 + Retry-After at once, so
// the HTTP shutdown never waits out the hold.
func TestServeDrainAnswersParkedLease(t *testing.T) {
	d, err := New(Options{LeaseTTL: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- d.serve(ctx, ln) }()

	res := leaseAsync(context.Background(), "http://"+ln.Addr().String(), "parked")
	waitParked(t, d, "parked")
	start := time.Now()
	cancel()
	wantDrain503(t, awaitLease(t, res, prompt))
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not return after its context was canceled")
	}
	if took := time.Since(start); took >= prompt {
		t.Fatalf("drain took %s with a parked lease, want well under the %s hold", took, leaseHold)
	}
}

// TestCanceledLeaseReturns: a lease request whose client gives up stops
// waiting at once; its handler — the only waiter a parked lease has —
// returns long before the hold would have run out.
func TestCanceledLeaseReturns(t *testing.T) {
	d, err := New(Options{LeaseTTL: time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	returned := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned) // the test sends exactly one request
		d.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	res := leaseAsync(ctx, ts.URL, "quitter")
	waitParked(t, d, "quitter")
	cancel()
	if r := awaitLease(t, res, prompt); !errors.Is(r.err, context.Canceled) {
		t.Fatalf("canceled lease: err = %v, want context.Canceled", r.err)
	}
	select {
	case <-returned:
	case <-time.After(prompt):
		t.Fatalf("lease handler still parked %s after its client gave up", prompt)
	}
}

// sleepLog is a runner.Clock whose Sleep returns at once, records the
// duration, and cancels the loop under test after stopAfter sleeps.
type sleepLog struct {
	mu        sync.Mutex
	sleeps    []time.Duration
	stopAfter int
	stop      context.CancelFunc
}

func (c *sleepLog) Now() time.Time { return time.Now() }

func (c *sleepLog) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sleeps = append(c.sleeps, d)
	if len(c.sleeps) >= c.stopAfter {
		c.stop()
	}
	return ctx.Err()
}

// TestWorkerRepollsAfterEmptyGrant: an empty 200 means the dispatcher
// already held the poll, so the worker polls again without sleeping; a
// 503 still backs off (jittered backoff without Retry-After, the hint
// with it).
func TestWorkerRepollsAfterEmptyGrant(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/lease", func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2, 3:
			json.NewEncoder(w).Encode(LeaseResponse{})
		case 4:
			http.Error(w, `{"error":"busy"}`, http.StatusServiceUnavailable)
		default:
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"draining"}`, http.StatusServiceUnavailable)
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	clock := &sleepLog{stopAfter: 2, stop: cancel}
	pollMin := 10 * time.Millisecond
	w, err := NewWorker(WorkerOptions{
		Dispatcher: ts.URL, Name: "repoll", Workers: 1,
		PollMin: pollMin, PollMax: time.Second, Clock: clock, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer w.poolStop()
	if err := w.leaseLoop(ctx); err != nil {
		t.Fatal(err)
	}

	if n := calls.Load(); n != 5 {
		t.Fatalf("worker polled %d times, want 5 (3 empty grants, 2 refusals)", n)
	}
	clock.mu.Lock()
	defer clock.mu.Unlock()
	if len(clock.sleeps) != 2 {
		t.Fatalf("worker slept %v, want exactly one sleep per 503 and none per empty grant", clock.sleeps)
	}
	if d := clock.sleeps[0]; d < pollMin || d > pollMin*3/2 {
		t.Fatalf("first 503 backoff = %s, want the jittered first step in [%s, %s]", d, pollMin, pollMin*3/2)
	}
	if d := clock.sleeps[1]; d != time.Second {
		t.Fatalf("503 with Retry-After: slept %s, want 1s", d)
	}
}

// sleepCapture is a runner.Clock that reports each Sleep's duration and
// then blocks until the sleeper's context ends.
type sleepCapture struct{ slept chan time.Duration }

func (c *sleepCapture) Now() time.Time { return time.Now() }

func (c *sleepCapture) Sleep(ctx context.Context, d time.Duration) error {
	select {
	case c.slept <- d:
	case <-ctx.Done():
	}
	<-ctx.Done()
	return ctx.Err()
}

// TestWorkerHeartbeatFollowsGrantedTTL: the first heartbeat is due a
// third of the granted lease's TTL after the grant. The heartbeat loop
// used to start a DefaultLeaseTTL/3 (5 s) sleep before any grant, so
// with a short TTL (dispatchd -lease 2) a worker's first heartbeat came
// after its leases had expired; once idle polls stopped delaying the
// first grant, shards finished without ever being marked executing.
func TestWorkerHeartbeatFollowsGrantedTTL(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/complete", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(CompleteResponse{})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	clock := &sleepCapture{slept: make(chan time.Duration)}
	w, err := NewWorker(WorkerOptions{Dispatcher: ts.URL, Name: "hb", Workers: 1, Clock: clock, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer w.poolStop()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeatLoop(ctx)
	}()

	// Nothing is held yet, so there is no cadence to keep.
	select {
	case d := <-clock.slept:
		t.Fatalf("heartbeat loop started a %s sleep before any grant", d)
	case <-time.After(50 * time.Millisecond):
	}
	// An unparseable spec fails fast on the pool; only the grant's TTL
	// matters here.
	w.start(Shard{Sweep: "swp-000001", Name: "hb", RunID: "r", Key: "k",
		Spec: json.RawMessage(`{`), Lease: "swp-000001/0/1", TTLMs: 300})
	var first time.Duration
	select {
	case first = <-clock.slept:
	case <-time.After(5 * time.Second):
		t.Fatal("heartbeat loop never slept")
	}
	cancel()
	<-hbDone
	w.pool.Drain()
	w.deliveries.Wait()
	if first != 100*time.Millisecond {
		t.Fatalf("first heartbeat due after %s, want 100ms (a third of the granted 300ms TTL)", first)
	}
}
