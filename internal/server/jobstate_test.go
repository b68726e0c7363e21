package server

import (
	"bytes"
	"context"
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
