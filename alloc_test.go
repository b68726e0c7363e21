package fcdpm

// Allocation-budget pins for the hot paths. These are hard gates, not
// benchmarks: the zero-allocation steady state of the simulation core is
// an API guarantee (SimRunner + RecordFuelOnly), and testing.AllocsPerRun
// catches any accidental per-run allocation the day it is introduced.

import (
	"testing"

	"fcdpm/internal/fault"
)

// newThroughputRunner builds the benchmark configuration: FC-DPM over the
// camcorder trace at the fuel-only record level.
func newThroughputRunner(t testing.TB) *SimRunner {
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewSimRunner(SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record: RecordFuelOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSimRunSteadyStateZeroAllocs(t *testing.T) {
	r := newThroughputRunner(t)
	// Warm-up run: lazily grown buffers (idle-length history, event log
	// capacity) settle on the first pass.
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("SimRunner.Run allocates %v times per steady-state run at RecordFuelOnly, want 0", allocs)
	}
}

func TestSimRunMetricsZeroAllocs(t *testing.T) {
	// Instrumentation must not perturb the zero-allocation guarantee:
	// with a SimMetrics bundle attached, steady-state runs still
	// allocate nothing (recording is a handful of atomic adds).
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetricsRegistry()
	m := NewSimMetrics(reg)
	r, err := NewSimRunner(SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record:  RecordFuelOnly,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("instrumented SimRunner.Run allocates %v times per steady-state run, want 0", allocs)
	}
	if got := m.Runs.Value(); got < 21 {
		t.Fatalf("metrics recorded %v runs, want >= 21", got)
	}
	if m.Slots.Value() <= 0 || m.RunSeconds.Count() == 0 {
		t.Fatal("instrumented runs recorded no slots or wall time")
	}
}

func TestSimRunnerResultsStayIdentical(t *testing.T) {
	// The arena reuse must not leak state between runs: every repeat is
	// the same simulation, so its totals must match the first bit for bit.
	r := newThroughputRunner(t)
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	fuel, deficit, final := first.Fuel, first.Deficit, first.FinalCharge
	for i := 0; i < 3; i++ {
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Fuel != fuel || res.Deficit != deficit || res.FinalCharge != final {
			t.Fatalf("run %d diverged: fuel %v/%v deficit %v/%v final %v/%v",
				i, res.Fuel, fuel, res.Deficit, deficit, res.FinalCharge, final)
		}
	}
}

// newThroughputBatch builds a fault-free multi-lane batch over the
// camcorder trace: three FC-DPM lanes keyed alike (one group) plus a
// Conv lane and an ASAP lane, instrumented with a BatchMetrics bundle.
func newThroughputBatch(t testing.TB) *BatchRunner {
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(key string, p Policy, rec RecordLevel) SimLane {
		return SimLane{Key: key, Cfg: SimConfig{
			Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
			Trace: trace, Policy: p, Record: rec,
		}}
	}
	b, err := NewBatchRunner([]SimLane{
		mk("fcdpm", NewFCDPM(sys, dev), RecordFuelOnly),
		mk("fcdpm", NewFCDPM(sys, dev), RecordFuelOnly),
		mk("fcdpm", NewFCDPM(sys, dev), RecordFuelOnly),
		mk("conv", NewConv(sys), RecordFuelOnly),
		mk("asap", NewASAP(sys), RecordFuelOnly),
	})
	if err != nil {
		t.Fatal(err)
	}
	b.Metrics = NewBatchMetrics(NewMetricsRegistry())
	return b
}

func TestBatchRunnerZeroAllocs(t *testing.T) {
	b := newThroughputBatch(t)
	if _, err := b.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := b.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("BatchRunner.Run allocates %v times per steady-state run at RecordFuelOnly, want 0", allocs)
	}
}

func TestOptimizeSlotZeroAllocs(t *testing.T) {
	sys := PaperSystem()
	slot := OptSlot{
		Ti: 14, IldI: 0.2, Ta: 3.03, IldA: 1.22, Cini: 1, Cend: 1,
		Sleep:    true,
		Overhead: &OptOverhead{TauWU: 0.5, IWU: 0.4, TauPD: 0.5, IPD: 0.4},
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := OptimizeSlot(sys, 6, slot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("OptimizeSlot allocates %v times per call, want 0", allocs)
	}
}

func TestSimFaultedRunZeroAllocs(t *testing.T) {
	// Fault injection must ride the same arena-reuse path as clean runs:
	// the injector rewinds its transition list and noise stream in place,
	// and the fade wrapper restores instead of being rebuilt per run.
	// The event magnitudes stay zero (class defaults apply) because a
	// nonzero magnitude formats into the audit log.
	sys := PaperSystem()
	dev := Camcorder()
	trace, err := CamcorderTrace(1)
	if err != nil {
		t.Fatal(err)
	}
	sched := &FaultSchedule{Events: []FaultEvent{
		{Kind: fault.CapacityFade, Start: 200, Dur: 100},
		{Kind: fault.SensorNoise, Start: 400, Dur: 150},
	}}
	r, err := NewSimRunner(SimConfig{
		Sys: sys, Dev: dev, Store: MustSuperCap(6, 1),
		Trace: trace, Policy: NewFCDPM(sys, dev),
		Record: RecordFuelOnly,
		Faults: sched, FaultSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	fuel, lost := first.Fuel, first.LostCharge
	allocs := testing.AllocsPerRun(20, func() {
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Fuel != fuel || res.LostCharge != lost {
			t.Fatalf("faulted rerun diverged: fuel %v/%v lost %v/%v",
				res.Fuel, fuel, res.LostCharge, lost)
		}
	})
	if allocs != 0 {
		t.Fatalf("faulted SimRunner.Run allocates %v times per steady-state run, want 0", allocs)
	}
}
