package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fcdpm/internal/runner"
)

// TestSweepPendingDocumentSchema pins one schema for the sweep document
// in every job state: while cells are outstanding, GET answers 202 with
// the same cells array the final 200 report carries, never a bare count.
func TestSweepPendingDocumentSchema(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	// A sweep registered without submitting work stays pending until the
	// test resolves its cells, so every state below is reached on cue.
	j := s.reg.newJob(jobSweep, "", "pending")
	j.cells = []cellState{
		{Name: "a", Key: "key-a", Status: "queued"},
		{Name: "b", Key: "key-b", Status: "queued"},
	}
	j.remaining = len(j.cells)

	type pendingDoc struct {
		ID        string      `json:"id"`
		Status    string      `json:"status"`
		Remaining int         `json:"remaining"`
		Cells     []cellState `json:"cells"`
	}
	var doc pendingDoc
	resp := getJSON(t, ts, "/v1/sweeps/"+j.id, &doc)
	if resp.StatusCode != 202 {
		t.Fatalf("pending sweep GET: %d, want 202", resp.StatusCode)
	}
	if doc.ID != j.id || doc.Status != "queued" || doc.Remaining != 2 || len(doc.Cells) != 2 || doc.Cells[1] != j.cells[1] {
		t.Fatalf("pending sweep document %+v", doc)
	}

	s.cellDone(j, 0, runner.StatusDone, true, "")
	doc = pendingDoc{}
	resp = getJSON(t, ts, "/v1/sweeps/"+j.id, &doc)
	if resp.StatusCode != 202 {
		t.Fatalf("half-done sweep GET: %d, want 202", resp.StatusCode)
	}
	if doc.Remaining != 1 || len(doc.Cells) != 2 || doc.Cells[0].Status != "done" || !doc.Cells[0].Cached {
		t.Fatalf("half-done sweep document %+v", doc)
	}

	s.cellDone(j, 1, runner.StatusDone, false, "")
	var sr sweepReport
	resp = getJSON(t, ts, "/v1/sweeps/"+j.id, &sr)
	if resp.StatusCode != 200 {
		t.Fatalf("finished sweep GET: %d, want 200", resp.StatusCode)
	}
	if len(sr.Cells) != 2 || sr.Done != 2 || sr.Cached != 1 || sr.Cells[1].Status != "done" {
		t.Fatalf("final sweep report %+v", sr)
	}
}

// TestResolvedEventFollowsDone pins the finish ordering: the job's done
// channel closes before its resolved event is appended, so a GET issued
// on that event always gets the final document.
func TestResolvedEventFollowsDone(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	j := s.reg.newJob(jobRun, "", "run")
	// Holding the event log's lock stalls finish at its event append.
	j.events.mu.Lock()
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		j.finish(jobDone, []byte("{}"), "", 200, false)
	}()
	select {
	case <-j.done:
		j.events.mu.Unlock()
	case <-time.After(5 * time.Second):
		j.events.mu.Unlock()
		<-finished
		t.Fatal("finish appended the resolved event before closing the done channel")
	}
	<-finished
	line, ok := j.events.next(context.Background(), 0)
	if !ok || !bytes.Contains(line, []byte(`"resolved"`)) {
		t.Fatalf("first event %q (ok=%v), want resolved", line, ok)
	}
}

// TestRunPendingDocumentStatus pins the run document's states: 202 with
// a bare status document (no sweep fields) while pending, then the
// stored report body at its own status code once the job resolves.
func TestRunPendingDocumentStatus(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	j := s.reg.newJob(jobRun, "", "run")

	var doc map[string]any
	resp := getJSON(t, ts, "/v1/runs/"+j.id, &doc)
	if resp.StatusCode != 202 {
		t.Fatalf("pending run GET: %d, want 202", resp.StatusCode)
	}
	if doc["id"] != j.id || doc["status"] != "queued" || len(doc) != 2 {
		t.Fatalf("pending run document %v", doc)
	}

	j.finish(jobDone, []byte(`{"fuel":1.5}`), "", 200, false)
	doc = nil
	resp = getJSON(t, ts, "/v1/runs/"+j.id, &doc)
	if resp.StatusCode != 200 {
		t.Fatalf("finished run GET: %d, want 200", resp.StatusCode)
	}
	if doc["fuel"] != 1.5 || len(doc) != 1 {
		t.Fatalf("finished run document %v", doc)
	}
}

// TestConcurrentCellsAllStreamed resolves every cell of a sweep from its
// own goroutine at once, round after round: each cell event must land in
// the stream before resolved, whichever cell resolves last.
func TestConcurrentCellsAllStreamed(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	const cells, rounds = 8, 200
	for round := 0; round < rounds; round++ {
		j := s.reg.newJob(jobSweep, "", "race")
		j.cells = make([]cellState, cells)
		for i := range j.cells {
			j.cells[i] = cellState{Name: fmt.Sprintf("c%d", i), Status: "queued"}
		}
		j.remaining = cells
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < cells; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				s.cellDone(j, i, runner.StatusDone, false, "")
			}(i)
		}
		close(start)
		wg.Wait()
		<-j.done
		seen := 0
		for _, line := range j.events.snapshot() {
			var e Event
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			if e.Kind == "resolved" {
				break
			}
			if e.Kind == "cell" {
				seen++
			}
		}
		if seen != cells {
			t.Fatalf("round %d: %d cell events before resolved, want %d", round, seen, cells)
		}
	}
}

// cellEvents returns the cell events in a job's log, in order.
func cellEvents(t *testing.T, j *job) []Event {
	t.Helper()
	var out []Event
	for _, line := range j.events.snapshot() {
		var e Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		if e.Kind == "cell" {
			out = append(out, e)
		}
	}
	return out
}

// TestCellDoneKeepsFirstOutcome pins cellDone's idempotence: a second
// resolution of a cell (a chunk body and its pool resolution both
// reaching it) changes nothing, emits no event and counts nothing, so
// remaining reaches 0 only when every cell has resolved once.
func TestCellDoneKeepsFirstOutcome(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	j := s.reg.newJob(jobSweep, "", "twice")
	j.cells = []cellState{{Name: "a", Status: "queued"}, {Name: "b", Status: "queued"}}
	j.remaining = len(j.cells)
	done0, failed0 := s.metrics.runsDone.Value(), s.metrics.runsFailed.Value()

	s.cellDone(j, 0, runner.StatusDone, true, "")
	s.cellDone(j, 0, runner.StatusFailed, false, "late")
	s.cellDone(j, len(j.cells), runner.StatusDone, false, "") // out of range
	j.mu.Lock()
	c0, remaining := j.cells[0], j.remaining
	j.mu.Unlock()
	if c0.Status != "done" || !c0.Cached || c0.Err != "" || remaining != 1 {
		t.Fatalf("after a repeated resolution: cell %+v, remaining %d; want the first outcome and 1 remaining", c0, remaining)
	}
	select {
	case <-j.done:
		t.Fatal("sweep resolved with a cell still queued")
	default:
	}
	if ev := cellEvents(t, j); len(ev) != 1 {
		t.Fatalf("%d cell events after one cell resolved, want 1: %+v", len(ev), ev)
	}

	s.cellDone(j, 1, runner.StatusDone, false, "")
	<-j.done
	if ev := cellEvents(t, j); len(ev) != 2 {
		t.Fatalf("%d cell events for 2 cells: %+v", len(ev), ev)
	}
	if d, f := s.metrics.runsDone.Value()-done0, s.metrics.runsFailed.Value()-failed0; d != 2 || f != 0 {
		t.Fatalf("counted %v done and %v failed, want 2 and 0", d, f)
	}
}

// TestResolveSettlesOnlyQueuedCells pins a sweep chunk's pool
// resolution: cells its body already resolved keep their outcome, and
// every cell still queued takes the task's status and error.
func TestResolveSettlesOnlyQueuedCells(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	j := s.reg.newJob(jobSweep, "", "interrupted")
	j.cells = []cellState{{Name: "a", Status: "queued"}, {Name: "b", Status: "queued"}, {Name: "c", Status: "queued"}}
	j.remaining = len(j.cells)

	s.cellDone(j, 0, runner.StatusDone, false, "")
	s.resolve(taskRef{job: j, cells: []int{0, 1, 2}}, runner.StatusInterrupted, errors.New("shutdown"))
	select {
	case <-j.done:
	case <-time.After(5 * time.Second):
		t.Fatal("sweep did not resolve after its chunk's resolution")
	}

	want := []cellState{
		{Name: "a", Status: "done"},
		{Name: "b", Status: string(runner.StatusInterrupted), Err: "shutdown"},
		{Name: "c", Status: string(runner.StatusInterrupted), Err: "shutdown"},
	}
	status, body, errMsg, code := j.outcome()
	var sr sweepReport
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("sweep report %q: %v", body, err)
	}
	if len(sr.Cells) != len(want) {
		t.Fatalf("sweep report cells %+v, want %+v", sr.Cells, want)
	}
	for i := range want {
		if sr.Cells[i] != want[i] {
			t.Errorf("cell %d: %+v, want %+v", i, sr.Cells[i], want[i])
		}
	}
	if status != jobFailed || code != 200 || sr.Done != 1 || sr.Failed != 2 || errMsg != "2 of 3 cells failed" {
		t.Fatalf("sweep outcome %s %d %q, report done=%d failed=%d", status, code, errMsg, sr.Done, sr.Failed)
	}
	if ev := cellEvents(t, j); len(ev) != 3 {
		t.Fatalf("%d cell events for 3 cells: %+v", len(ev), ev)
	}
}
