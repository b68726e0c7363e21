package perf

import (
	"testing"

	"fcdpm/internal/device"
	"fcdpm/internal/fuelcell"
	"fcdpm/internal/workload"
)

// TestBatchRunnerGroups pins what each batch-slot-throughput-k* entry
// measures: k lanes over the number of distinct groups that execute.
func TestBatchRunnerGroups(t *testing.T) {
	trace, err := workload.Camcorder(workload.DefaultCamcorderConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ k, groups int }{{1, 1}, {8, 8}, {64, 8}} {
		br, err := batchRunner(fuelcell.PaperSystem(), device.Camcorder(), trace, c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got := br.Groups(); got != c.groups {
			t.Errorf("batch-slot-throughput-k%d: %d groups, want %d", c.k, got, c.groups)
		}
	}
}
