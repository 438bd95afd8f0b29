// Command perfbench is the service benchmark: it drives one workload
// against the histogram service through its public Go packages, checks
// every answer, and prints the metrics as one JSON object on the last line
// of standard output.
//
//	perfbench --workload query|ingest|mixed --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, and prints the per-layer metrics
// derived from the spans it recorded around each call into the system. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the service sees, reported by every
// workload with tracing off. Each workload defines its own unit operation
// and item (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p90_us", "us"},
	{"err_rel", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// perLayer are the traced run's metrics. A layer a workload does not touch
// reports 0.
var perLayer = []metricDef{
	{"synopsis.range_batch_us", "us"},
	{"serve.handler_us", "us"},
	{"serve.wire_us", "us"},
	{"codec.parse_us", "us"},
	{"codec.encode_us", "us"},
	{"transport.us", "us"},
	{"split.transport_us", "us"},
	{"split.serve_us", "us"},
	{"split.engine_us", "us"},
	{"split.residual_us", "us"},
	{"stream.add_batch_us_p50", "us"},
	{"stream.add_batch_us_p99", "us"},
	{"stream.summary_ms", "ms"},
	{"stream.compactions", "count/Mupd"},
	{"stream.pause_count", "count/Mupd"},
	{"stream.pause_share", "ratio"},
	{"stream.compact_us_p50", "us"},
	{"stream.summary_pieces", "count"},
	{"stream.summary_err_ratio", "ratio"},
	{"stream.range_over_us", "us"},
	{"stream.advance_us", "us"},
	{"stream.durable_add_us", "us"},
	{"due.range_p50_us", "us"},
	{"due.range_p99_us", "us"},
	{"due.add_p50_us", "us"},
	{"due.add_p99_us", "us"},
	{"wal.fsyncs", "1/s"},
	{"wal.group_size", "count"},
	{"wal.bytes_per_update", "B"},
	{"wal.checkpoint_ms_p50", "ms"},
	{"replicate.sync_us_p50", "us"},
	{"replicate.sync_us_p99", "us"},
	{"replicate.delta_bytes", "B"},
	{"replicate.full_syncs", "count"},
	{"replicate.answer_mismatch", "count"},
	{"core.fit_ms", "ms"},
	{"runtime.cpu_ns_per_item", "ns"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cycles", "count"},
	{"gen.late_us_p99", "us"},
	{"trace.overhead_us", "us"},
	{"trace.spans", "count"},
}

// config is one invocation's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// calibrate runs the mixed workload's loops closed-loop and prints the
	// rates they reach, instead of measuring.
	calibrate bool
	// workDir is a private scratch directory under .bench_build, removed
	// when the run ends.
	workDir string
}

// result is what a workload hands back: operation counts, the metrics it
// measured, and the first failed output check (nil when every check held).
type result struct {
	attempted, failed int
	metrics           map[string]float64
	checkErr          error
}

// check records the first failed output check.
func (r *result) check(err error) {
	if err != nil && r.checkErr == nil {
		r.checkErr = err
	}
}

// errCalibrated ends a calibration run, which reports no metrics.
var errCalibrated = errors.New("calibration run")

var workloads = map[string]func(*config) (*result, error){
	"query":  runQuery,
	"ingest": runIngest,
	"mixed":  runMixed,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config
	var seed int64
	var seconds, trace, calibrate int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: query, ingest or mixed")
	flag.Int64Var(&seed, "seed", 1, "input seed")
	flag.IntVar(&seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&calibrate, "calibrate", 0, "1 = print the mixed workload's closed-loop rates and exit")
	flag.Parse()
	fn, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if seconds < 1 || trace < 0 || trace > 1 {
		return fmt.Errorf("--seconds must be ≥ 1 and --trace 0 or 1")
	}
	cfg.seed, cfg.seconds, cfg.trace, cfg.calibrate = uint64(seed), float64(seconds), trace == 1, calibrate == 1

	// The run writes only below .bench_build in the working directory,
	// which must be the checkout root.
	if _, err := os.Stat("perfbench/go.mod"); err != nil {
		return fmt.Errorf("run from the checkout root: %w", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir

	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d seconds=%d trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, seed, seconds, trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	res, err := fn(&cfg)
	if errors.Is(err, errCalibrated) {
		return nil
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out, err := report(res, defs, !cfg.trace)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if res.checkErr != nil {
		return fmt.Errorf("output check failed: %w", res.checkErr)
	}
	return nil
}

// report renders the result line. Every listed metric must be present and
// finite; end-to-end metrics must also be nonzero.
func report(res *result, defs []metricDef, nonzero bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	var errs []error
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		switch {
		case !ok && nonzero:
			errs = append(errs, fmt.Errorf("metric %s not measured", d.name))
		case math.IsNaN(v) || math.IsInf(v, 0):
			errs = append(errs, fmt.Errorf("metric %s = %v", d.name, v))
		case nonzero && v == 0:
			errs = append(errs, fmt.Errorf("metric %s is 0", d.name))
		}
		metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(os.Stderr, "  %-28s %14.6g %s\n", d.name, v, d.unit)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.checkErr == nil, res.attempted, res.failed, metrics})
}

// deadline returns when a phase of the given length started now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
