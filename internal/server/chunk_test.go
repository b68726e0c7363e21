package server

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fcdpm/internal/config"
	"fcdpm/internal/runner"
)

// sweepFixture registers a pending sweep over the given spec documents,
// with their parsed specs and cache keys, without submitting any work.
func sweepFixture(t *testing.T, s *Server, docs ...string) (*job, []*config.Scenario, []string) {
	t.Helper()
	j := s.reg.newJob(jobSweep, "", "fixture")
	specs := make([]*config.Scenario, len(docs))
	keys := make([]string, len(docs))
	j.cells = make([]cellState, len(docs))
	for i, doc := range docs {
		spec, err := config.LoadValidated(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		key, err := spec.CacheKey(s.engine)
		if err != nil {
			t.Fatalf("spec %d key: %v", i, err)
		}
		specs[i], keys[i] = spec, key
		j.cells[i] = cellState{Name: fmt.Sprintf("c%d", i), Key: key, Status: "queued"}
	}
	j.remaining = len(docs)
	return j, specs, keys
}

// TestSweepChunksCapDistinctKeys pins the chunking rule: keys sharing a
// trace share a task, each task holds at most maxCellsPerTask distinct
// keys however many duplicate cells ride on them, and first-seen order
// holds across and within chunks.
func TestSweepChunksCapDistinctKeys(t *testing.T) {
	trace := func(seed int) string {
		return fmt.Sprintf(`{"trace":{"kind":"synthetic","seed":%d,"duration":120}}`, seed)
	}
	var specs []*config.Scenario
	var groups []keyCells
	add := func(doc string, dups int) {
		spec, err := config.LoadValidated(strings.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		g := keyCells{len(specs)}
		specs = append(specs, spec)
		for d := 0; d < dups; d++ {
			g = append(g, len(specs))
			specs = append(specs, spec)
		}
		groups = append(groups, g)
	}
	// maxCellsPerTask+1 keys on trace 1, each with a duplicate cell, then
	// one key on trace 2 and one more on trace 1.
	for k := 0; k <= maxCellsPerTask; k++ {
		add(strings.Replace(trace(1), `{"trace"`, fmt.Sprintf(`{"name":"k%d","trace"`, k), 1), 1)
	}
	add(trace(2), 0)
	add(trace(1), 0)

	chunks := sweepChunks(specs, groups)
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3 (trace 1 split at %d keys, then trace 2)", len(chunks), maxCellsPerTask)
	}
	if n := len(chunks[0]); n != maxCellsPerTask {
		t.Fatalf("first chunk holds %d keys, want %d", n, maxCellsPerTask)
	}
	if n := len(chunks[1]); n != 2 || chunks[1][0][0] != groups[maxCellsPerTask][0] || chunks[1][1][0] != groups[len(groups)-1][0] {
		t.Fatalf("second chunk %v, want trace 1's last two keys in order", chunks[1])
	}
	if len(chunks[2]) != 1 || chunks[2][0][0] != groups[maxCellsPerTask+1][0] {
		t.Fatalf("third chunk %v, want trace 2's key", chunks[2])
	}
	for i, g := range chunks[0] {
		if g[0] != groups[i][0] || len(g) != 2 {
			t.Fatalf("first chunk key %d: %v, want %v", i, g, groups[i])
		}
	}
}

// TestChunkTaskFailsOnlyItsKey runs one chunk body directly: a key whose
// build fails resolves only its own cell as failed, and the next key's
// run serves both of its cells, done and not cached, from one run whose
// body lands in the cache.
func TestChunkTaskFailsOnlyItsKey(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	bad := filepath.Join(t.TempDir(), "zero.csv")
	if err := os.WriteFile(bad, []byte("idle_s,active_s,active_current_a\n0,0,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	j, specs, keys := sweepFixture(t, s,
		fmt.Sprintf(`{"trace":{"kind":"file","file":%q}}`, bad), quickSpec, quickSpec)
	chunk := []keyCells{{0}, {1, 2}}

	if _, err := s.chunkTask(j, chunk, specs, keys)(context.Background()); err != nil {
		t.Fatalf("chunk task: %v", err)
	}
	<-j.done
	j.mu.Lock()
	cells := append([]cellState(nil), j.cells...)
	j.mu.Unlock()
	if cells[0].Status != string(runner.StatusFailed) || cells[0].Err == "" {
		t.Fatalf("bad cell %+v, want failed with its build error", cells[0])
	}
	for _, c := range cells[1:] {
		if c.Status != "done" || c.Cached || c.Err != "" {
			t.Fatalf("good cell %+v, want done and not cached", c)
		}
	}
	if _, ok := s.cache.Get(keys[1]); !ok {
		t.Fatal("the chunk's run did not populate the cache")
	}
	if _, ok := s.cache.Get(keys[0]); ok {
		t.Fatal("the failed key reached the cache")
	}
}

// TestChunkTaskCancelAndRetry pins a chunk body's cancellation and retry
// contract: a cancelled context ends the task with its error and leaves
// every cell queued for the pool's resolution, and a later attempt skips
// the keys already resolved and runs the rest.
func TestChunkTaskCancelAndRetry(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	other := strings.Replace(quickSpec, `"fcdpm"`, `"conv"`, 1)
	j, specs, keys := sweepFixture(t, s, quickSpec, other)
	task := s.chunkTask(j, []keyCells{{0}, {1}}, specs, keys)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := task(ctx); err != context.Canceled {
		t.Fatalf("cancelled chunk task returned %v, want context.Canceled", err)
	}
	j.mu.Lock()
	remaining := j.remaining
	j.mu.Unlock()
	if remaining != 2 || len(cellEvents(t, j)) != 0 {
		t.Fatalf("cancelled chunk task resolved cells: remaining %d, events %+v", remaining, cellEvents(t, j))
	}

	// An earlier attempt resolved cell 0; the retry must not run it again.
	s.cellDone(j, 0, runner.StatusDone, true, "")
	if _, err := task(context.Background()); err != nil {
		t.Fatalf("retried chunk task: %v", err)
	}
	<-j.done
	j.mu.Lock()
	c0, c1 := j.cells[0], j.cells[1]
	j.mu.Unlock()
	if c0.Status != "done" || !c0.Cached {
		t.Fatalf("resolved cell %+v changed on retry", c0)
	}
	if _, ok := s.cache.Get(keys[0]); ok {
		t.Fatal("retry re-ran a key an earlier attempt resolved")
	}
	if c1.Status != "done" || c1.Cached {
		t.Fatalf("retried cell %+v, want done and not cached", c1)
	}
	if _, ok := s.cache.Get(keys[1]); !ok {
		t.Fatal("retry did not run the queued key")
	}
}
