// Command perfbench is the repository's benchmark: it runs the paper,
// matrix and service workloads against the simulator's public entry
// points, checks every output before its numbers count, and prints the
// end-to-end metrics (tracing off) or the per-layer metrics (tracing on).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
//
// Run it through perfbench/run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh compare -ref HEAD~1 -pairs 10
//	bash perfbench/run.sh accuracy
//	bash perfbench/run.sh describe
//	bash perfbench/run.sh spec > BENCHMARK.json
//	bash perfbench/run.sh digests > perfbench/digests.json
//
// It exits 1 when an output is wrong or a run fails, and 2 on bad usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeed is the seed the stored digests were taken at; heldOutSeed is
// kept out of tuning and only reported.
const (
	defaultSeed = 1
	heldOutSeed = 97
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "spec":
			return cmdSpec(stdout, stderr)
		case "describe":
			cmdDescribe(stdout)
			return 0
		case "digests":
			return cmdDigests(stdout, stderr)
		case "accuracy":
			return cmdAccuracy(stdout, stderr)
		case "compare":
			return cmdCompare(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper, matrix or service")
	seed := fs.Int64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", defaultRunSeconds, "how long the run measures")
	traced := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: --workload paper|matrix|service --seed N --seconds S --trace 0|1")
		return 2
	}
	rep := newReport(*workload, traceSeed(*seed), *traced == 1, stdout)
	if err := measure(rep, *seconds); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := rep.print(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if rep.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %d of %d outputs were wrong\n", rep.failed, rep.attempted)
		return 1
	}
	return 0
}

// traceSeed maps the benchmark seed to the trace generators' seed. The
// service's job specs treat seed 0 as "use the default", so 0 maps to a
// fixed non-zero seed instead.
func traceSeed(seed int64) int64 {
	if seed == 0 {
		return 1 << 32
	}
	return seed
}

// workers is the simulation worker count: two, or fewer on a smaller
// host.
func workers() int { return min(2, runtime.NumCPU()) }

// scratchDir is where runs keep temporary state: under the build
// directory run.sh names, inside the checkout.
func scratchDir() (string, error) {
	base := os.Getenv("PERFBENCH_BUILD")
	if base == "" {
		base = ".bench_build"
	}
	dir := filepath.Join(base, "scratch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

// measure runs one workload, untraced or traced, into rep.
func measure(rep *report, seconds float64) error {
	scratch, err := scratchDir()
	if err != nil {
		return err
	}
	defer func() {
		os.RemoveAll(scratch)
		syncFS()
	}()
	syncFS()
	ctx := context.Background()
	rep.conditions(seconds)
	switch rep.workload {
	case "paper", "matrix":
		w := paperWorkload(rep.seed)
		if rep.workload == "matrix" {
			w = matrixWorkload(rep.seed)
		}
		if rep.traced {
			return w.trace(ctx, rep, workers(), scratch)
		}
		return w.measure(ctx, rep, workers(), seconds)
	case "service":
		if rep.traced {
			return traceService(ctx, rep, seconds, scratch)
		}
		return measureService(ctx, rep, seconds, scratch)
	}
	return fmt.Errorf("unknown workload %q (want paper, matrix or service)", rep.workload)
}

// report collects one run's metrics with their sample counts.
type report struct {
	workload          string
	seed              int64
	traced            bool
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	out               io.Writer
}

func newReport(workload string, seed int64, traced bool, out io.Writer) *report {
	return &report{workload: workload, seed: seed, traced: traced,
		values: map[string]float64{}, samples: map[string]int{}, out: out}
}

// set records a metric value and how many samples it summarizes.
func (r *report) set(name string, v float64, samples int) {
	r.values[name] = v
	r.samples[name] = samples
}

// setTail records the p-th percentile of xs, noting when fewer than ten
// samples lie beyond it.
func (r *report) setTail(name string, xs []float64, p float64) {
	r.set(name, percentile(xs, p), len(xs))
	if b := beyond(len(xs), p); b < 10 {
		fmt.Fprintf(r.out, "# warning: %s is p%g of %d samples, only %d beyond it\n", name, p, len(xs), b)
	}
}

// conditions prints the run conditions every number is measured under.
func (r *report) conditions(seconds float64) {
	fmt.Fprintf(r.out, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, seconds, r.traced)
	fmt.Fprintf(r.out, "# host cpu=%q nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(r.out, "# source git=%s tree=%s\n", gitRevision(), sourceHash("."))
	fmt.Fprintf(r.out, "# scale %s; workers=%d batch=%d\n", scaleOf(r.workload), workers(), sweepBatch)
}

// scaleOf describes a workload's trace scale.
func scaleOf(workload string) string {
	switch workload {
	case "paper", "matrix":
		w := paperWorkload(0)
		if workload == "matrix" {
			w = matrixWorkload(0)
		}
		p := w.grids[0].params
		return fmt.Sprintf("%d cpus x %d ops/cpu, %d grid jobs per pass", p.CPUs, p.OpsPerCPU, w.jobs())
	case "service":
		return fmt.Sprintf("singles %d cpus x %d ops/cpu, runall sweeps x %d ops/cpu; bursts of %d jobs; traced ladder %v/s, reference %g/s, p90 limit %g ms",
			serviceCPUs, serviceSingleOps, serviceSweepOps, serviceBurstJobs, serviceRates, serviceRates[serviceRefRung], serviceLimitMs)
	}
	return "unknown"
}

// print writes every metric of the run's kind, one per line with its
// unit and sample count, then the result object as the last line.
func (r *report) print() error {
	w := r.out
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	attempted := max(1, r.attempted)
	if !r.traced {
		r.set("ok_ratio", float64(attempted-r.failed)/float64(attempted), attempted)
	}
	var b strings.Builder
	b.WriteString("{")
	for i, m := range defs {
		v, ok := r.values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		fmt.Fprintf(w, "%-32s %14.6g %-10s (%d samples)\n", m.Name, v, m.Unit, r.samples[m.Name])
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%q: {\"value\": %s, \"unit\": %q}", m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
	}
	b.WriteString("}")
	fmt.Fprintf(w, "# outputs checked: %d attempted, %d wrong (fail_ratio %g)\n", attempted, r.failed, float64(r.failed)/float64(attempted))
	_, err := fmt.Fprintf(w, "{\"correct\": %v, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n", r.failed == 0, attempted, r.failed, b.String())
	return err
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// syncFS flushes filesystem buffers. The service's ledger and result
// files are fsync'd per job, so writeback and discards left over from
// earlier runs would stall the timed phase's fsyncs; flushing before
// timing starts, and after this run deletes its own state, keeps each run
// paying only for its own I/O.
func syncFS() { syscall.Sync() }

// cpuModel is the host CPU's model name.
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cmdSpec prints BENCHMARK.json.
func cmdSpec(stdout, stderr io.Writer) int {
	raw, err := benchmarkJSON(defaultRunSeconds)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	stdout.Write(raw)
	return 0
}
