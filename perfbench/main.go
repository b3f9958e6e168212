// Command perfbench is the repository's benchmark. It runs one workload,
// a crowd part against poiserve interleaved with a batch part on an
// in-process Service, checks the system's outputs, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, from a traced run beside an untraced one. Progress,
// sample counts and check results go to standard error. run.sh builds
// poiserve and this command and passes -poiserve and -workdir; see
// README.md for the workloads and every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	poiserve string
	workdir  string
}

const (
	// runDeadline bounds a whole invocation, set-up and checks included.
	runDeadline = 170 * time.Second
	// defaultSeconds is the measurement length BENCHMARK.json fixes.
	defaultSeconds = 40
	// crowdShare is the part of --seconds the crowd part measures; the
	// batch part repeats its cycle for the rest, in one slice after each
	// crowd world.
	crowdShare = 0.6
)

func main() {
	var cfg config
	var seconds, traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+wlSteady+" or "+wlDrift)
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&seconds, "seconds", defaultSeconds, "measurement length in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 reports the per-layer metrics from a traced run, 0 the end-to-end metrics")
	flag.StringVar(&cfg.poiserve, "poiserve", "", "poiserve binary")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for server logs")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1

	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// The package path reads as a library to the repository's lint, but this
	// is a command: main owns the root context.
	//lint:ignore ctxflow the benchmark command's main owns its lifecycle
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	rep := newReport(cfg, os.Stderr)
	crowdSeconds := time.Duration(float64(cfg.seconds) * crowdShare).Round(time.Second)
	slice := (cfg.seconds - crowdSeconds) / crowdWorlds
	batch := &batchRun{cfg: cfg, rep: rep}
	err := runCrowd(ctx, cfg, crowdSeconds, rep, func() error { return batch.runFor(ctx, slice) })
	if err == nil {
		err = batch.finish()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func validate(cfg config, traceFlag int) error {
	if cfg.workload != wlSteady && cfg.workload != wlDrift {
		return fmt.Errorf("unknown workload %q (want %s or %s)", cfg.workload, wlSteady, wlDrift)
	}
	if cfg.poiserve == "" {
		return fmt.Errorf("workload %s needs -poiserve", cfg.workload)
	}
	if _, err := os.Stat(cfg.poiserve); err != nil {
		return fmt.Errorf("poiserve binary: %w", err)
	}
	if cfg.seconds < 2*time.Second || cfg.seconds > 60*time.Second {
		return fmt.Errorf("-seconds must be 2..60, got %s", cfg.seconds)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", traceFlag)
	}
	return os.MkdirAll(cfg.workdir, 0o755)
}

// report accumulates one invocation's metrics, operation counts and checks.
type report struct {
	cfg       config
	log       io.Writer
	values    map[string]float64
	attempted int64
	failed    int64
	problems  []string
}

func newReport(cfg config, log io.Writer) *report {
	return &report{cfg: cfg, log: log, values: map[string]float64{}}
}

func (r *report) logf(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

// set records a metric. Names come from the catalog; a name outside it is
// a bug in the benchmark.
func (r *report) set(name string, v float64) {
	if _, ok := lookupMetric(name); !ok {
		panic(fmt.Sprintf("perfbench: metric %q is not in the catalog", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problems = append(r.problems, fmt.Sprintf("%s is %v", name, v))
		return
	}
	r.values[name] = v
}

// timing records an end-to-end latency: the median, or a tail percentile
// that must have minBeyond samples beyond it.
func (r *report) timing(name string, xs []float64, q float64) {
	if q == 0.5 {
		if len(xs) == 0 {
			r.check(false, name, "no samples")
			return
		}
		r.set(name, median(xs))
		r.logf("%s: median of %d samples; highest supported percentile p%s", name, len(xs), pctName(highestSupported(len(xs))))
		return
	}
	v, err := tail(xs, q)
	if err != nil {
		r.check(false, name, err.Error())
		return
	}
	r.set(name, v)
	r.logf("%s: %d samples, %d beyond", name, len(xs), beyond(len(xs), q))
}

// ops counts operations the workload attempted and how many failed.
func (r *report) ops(attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
}

// check records one correctness check; a failed check fails the run.
func (r *report) check(ok bool, name, msg string) {
	r.attempted++
	status := "ok"
	if !ok {
		r.failed++
		r.problems = append(r.problems, name+": "+msg)
		status = "FAILED"
	}
	r.logf("check %s: %s (%s)", status, name, msg)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// output selects the metrics this mode reports: end-to-end untraced,
// per-layer traced. A metric of the mode that was not measured fails the
// run.
func (r *report) output() resultOut {
	out := resultOut{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	if r.attempted > 0 {
		r.set("success_frac", 1-float64(r.failed)/float64(r.attempted))
	}
	var missing []string
	for _, d := range catalog {
		if d.endToEnd() == r.cfg.trace {
			continue
		}
		v, ok := r.values[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		r.problems = append(r.problems, fmt.Sprintf("metrics not measured in this run: %v", missing))
	}
	out.Correct = len(r.problems) == 0 && r.failed == 0
	if out.Attempted == 0 {
		out.Attempted = 1
		out.Correct = false
	}
	return out
}

// write prints a readable summary to the log and the JSON line to w.
func (r *report) write(w io.Writer) error {
	out := r.output()
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	r.logf("--- %s seed %d trace %t", r.cfg.workload, r.cfg.seed, r.cfg.trace)
	for _, n := range names {
		r.logf("%-28s %14.4f %s", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	for _, p := range r.problems {
		r.logf("PROBLEM: %s", p)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
