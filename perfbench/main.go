// Command perfbench is the end-to-end benchmark of fcdpm's serving
// tiers. It launches the repository's own fcdpm binary on loopback
// (`fcdpm serve`, or `fcdpm dispatchd` with one `fcdpm workd`), drives
// one workload against it from this single load-generator process,
// checks every output against a scalar library oracle, and prints one
// JSON result as the last line of standard output.
//
// Run it through run.sh from the repository root, which builds the
// binaries first:
//
//	bash perfbench/run.sh --workload serve-runs --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics that BENCHMARK.json
// declares; with --trace 1 it records spans around its own calls into
// the program and reports the per-layer metrics. README.md documents
// the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(context.Context, *bench) (*outcome, error){
	"serve-runs":     serveRuns,
	"serve-sweep":    serveSweep,
	"dispatch-sweep": dispatchSweep,
}

// maxConns bounds the generator's concurrent connections to the SUT.
var maxConns = min(2, runtime.NumCPU())

// setupLaunches is how many times set-up launches and warms the SUT to
// take the median set-up time; all but the last instance are stopped.
const setupLaunches = 3

// The harness runs from the repository root: it reads the metric list
// from the manifest there and keeps run state, logs and spans under the
// build directory run.sh uses.
const (
	manifestPath = "BENCHMARK.json"
	workDir      = ".bench_build/perfbench"
)

// runDeadline, added to --seconds, bounds a whole run, so a SUT that
// stops answering fails the run instead of hanging it.
const runDeadline = 100 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string
}

// bench is one benchmark run: its options, the SUT processes it
// started, and the tracer (nil when untraced).
type bench struct {
	opts   options
	engine string
	hc     *http.Client
	tr     *tracer
	dir    string
	procs  []*proc
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	// invalid lists reasons the run's numbers cannot be trusted (an
	// output mismatch, a late generator, a nonzero waste counter).
	invalid []string
	metrics map[string]float64
	// sut records the command lines of the measured processes.
	sut [][]string
}

func (o *outcome) fail(n int, format string, args ...any) {
	o.failed += n
	if len(o.invalid) < 20 {
		o.invalid = append(o.invalid, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// envStamp identifies the machine and build a result came from, so no
// number is compared across core counts.
type envStamp struct {
	NumCPU     int        `json:"num_cpu"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	GoVersion  string     `json:"go_version"`
	Commit     string     `json:"commit"`
	Engine     string     `json:"engine"`
	Workload   string     `json:"workload"`
	Seed       uint64     `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      bool       `json:"trace"`
	SUT        [][]string `json:"sut"`
}

// manifest is the part of BENCHMARK.json the harness reads: the metric
// names and units it must print.
type manifest struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var opts options
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "", "serve-runs | serve-sweep | dispatch-sweep")
	fs.Uint64Var(&opts.seed, "seed", 1, "input seed")
	fs.IntVar(&opts.seconds, "seconds", 10, "timed window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&opts.bin, "bin", "", "path of the fcdpm binary under test")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	drive, ok := workloads[opts.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", opts.workload)
	}
	if opts.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || opts.bin == "" {
		return errors.New("need --seconds >= 1, --trace 0|1 and --bin")
	}
	opts.trace = traceFlag == 1
	var man manifest
	mb, err := os.ReadFile(manifestPath)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(mb, &man); err != nil {
		return fmt.Errorf("%s: %w", manifestPath, err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline+time.Duration(opts.seconds)*time.Second)
	defer cancel()
	b := &bench{opts: opts, hc: newClient(maxConns)}
	if opts.trace {
		b.tr = newTracer()
	}
	b.dir = filepath.Join(workDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.dir)
	defer b.stopAll()

	info, err := buildInfo(opts.bin)
	if err != nil {
		return err
	}
	b.engine = info.engine()

	out, err := drive(ctx, b)
	b.stopAll()
	if err != nil {
		return err
	}

	env := envStamp{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: info.Go, Commit: info.commit(), Engine: b.engine,
		Workload: opts.workload, Seed: opts.seed, Seconds: opts.seconds,
		Trace: opts.trace, SUT: out.sut,
	}
	if b.tr != nil {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.ndjson", opts.workload, opts.seed))
		if err := b.tr.write(path, map[string]any{"env": env}); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricOut{}}
	declared := man.EndToEnd
	if opts.trace {
		declared = man.PerLayer
	}
	for _, m := range declared {
		v, ok := out.metrics[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metricOut{Value: v, Unit: m.Unit}
	}
	res.Correct = out.failed == 0 && len(out.invalid) == 0 && out.attempted > 0
	for _, why := range out.invalid {
		fmt.Fprintln(os.Stderr, "perfbench: invalid:", why)
	}
	envLine, err := json.Marshal(map[string]any{"env": env})
	if err != nil {
		return err
	}
	resLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(envLine))
	fmt.Println(string(resLine))
	return nil
}

// start launches one SUT process and keeps it for cleanup.
func (b *bench) start(name string, args ...string) (*proc, error) {
	p, err := startProc(b.dir, name, b.opts.bin, args...)
	if err != nil {
		return nil, err
	}
	b.procs = append(b.procs, p)
	return p, nil
}

// stopAll stops every process the run started and waits for each.
func (b *bench) stopAll() {
	for _, p := range b.procs {
		p.stop()
	}
}

// launch sets the SUT up setupLaunches times, each from clean state,
// and keeps the last instance. up starts the processes and returns once
// they are healthy and warmed up. It returns the median set-up time.
func (b *bench) launch(ctx context.Context, up func(k int) ([]*proc, error)) ([]*proc, float64, error) {
	var times []float64
	var ps []*proc
	for k := 0; k < setupLaunches; k++ {
		for _, p := range ps {
			p.stop()
		}
		t0 := time.Now()
		var err error
		if ps, err = up(k); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return ps, median(times), nil
}

// checkEngine confirms the SUT at base computes under the engine string
// the oracle uses.
func (b *bench) checkEngine(ctx context.Context, base string) error {
	var hz struct {
		Engine string `json:"engine"`
	}
	if err := getJSON(ctx, b.hc, base+"/healthz", &hz); err != nil {
		return err
	}
	if hz.Engine != b.engine {
		return fmt.Errorf("SUT engine %q, oracle engine %q", hz.Engine, b.engine)
	}
	return nil
}

// versionInfo is `fcdpm version -json`.
type versionInfo struct {
	Version  string `json:"version"`
	Revision string `json:"revision"`
	Modified bool   `json:"modified"`
	Go       string `json:"go"`
}

func buildInfo(bin string) (versionInfo, error) {
	out, err := exec.Command(bin, "version", "-json").Output()
	if err != nil {
		return versionInfo{}, fmt.Errorf("%s version -json: %w", bin, err)
	}
	var v versionInfo
	if err := json.Unmarshal(out, &v); err != nil {
		return versionInfo{}, fmt.Errorf("%s version -json: %w", bin, err)
	}
	return v, nil
}

// engine is the SUT's cache-key build tag, formed as the program forms
// it from the same build facts.
func (v versionInfo) engine() string {
	tag := v.Version
	if v.Revision != "" {
		tag += "@" + v.Revision
		if v.Modified {
			tag += "+dirty"
		}
	}
	return tag
}

func (v versionInfo) commit() string {
	if v.Revision == "" {
		return "unknown (built outside version control)"
	}
	if v.Modified {
		return v.Revision + "+dirty"
	}
	return v.Revision
}
