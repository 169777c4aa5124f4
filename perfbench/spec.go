package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Doc says what the value is, per workload where that differs.
	Doc string
}

// workloadDef is one workload and why the benchmark runs it.
type workloadDef struct {
	Name, Why string
}

// benchWorkloads are the workloads, in the order the report lists them.
var benchWorkloads = []workloadDef{
	{"paper", "The paper's RunAll grid (12 benchmarks x 3 MHAs + payload) and Fig 14 timeout grid on HMC at 4000 ops/CPU: cache, coalescer, MSHR and HMC do the work."},
	{"matrix", "Stride ladder and warp/hetero RunAll grid on ddr and ideal at 300 ops/CPU: front-end and non-HMC backends work, and short jobs make set-up a large share."},
	{"service", "In-process hmcservd with dsweep: bursts of 300 small jobs for capacity, and traced, an open-loop ladder of 100-300 jobs/s for latency. Job admission, ledger and dispatch cost matter."},
}

// The service load ladder the traced run drives: fixed open-loop rates,
// the rung the traced stack replays, and the latency limit
// load.sustained_jps holds each rung to. On a 2-vCPU Xeon, bursts of this
// mix complete at 190 to 280 jobs/s. In one traced run the open-loop p90
// was 36 ms at 100 jobs/s, 71 ms at 150 and 110 ms at 180; from 210 on it
// was 400 ms or more and the backlog grew. From run to run the rate that
// meets the limit read between 100 and 270 jobs/s. The limit sits at the
// knee, the reference rung near half the capacity, and the top rungs reach
// past saturation, so a faster service still shows.
var (
	serviceRates      = []float64{100, 150, 180, 210, 240, 270, 300}
	serviceRefRung    = 0
	serviceLimitMs    = 150.0
	serviceTenants    = []string{"tenant-a", "tenant-b", "tenant-c"}
	serviceSweepEvery = 20 // every 20th submitted job is a RunAll sweep
)

// The untraced service run measures capacity with bursts of
// serviceBurstJobs jobs, at least serviceMinBursts and at most
// serviceMaxBursts of them.
const (
	serviceBurstJobs = 300
	serviceMinBursts = 5
	serviceMaxBursts = 60
)

// endToEnd are the metrics a user of the simulator or the service sees,
// reported with tracing off. Every workload reports every one; Doc says
// what each means where the workloads differ.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of repeated set-ups before the first timed operation: generating and indexing every trace and building one System per lane (paper, matrix); starting the whole service stack and completing one warm-up job of each kind, once per burst (service)"},
	{"maccess_per_s", "Maccess/s", "higher", 0.25, "simulated trace accesses per host second in millions: median over passes (paper, matrix); accesses of a burst of jobs sent at once over the seconds from its first send to its last job done, so the service's own speed sets it: median over the bursts (service)"},
	{"heap_alloc_mb", "MB", "lower", 0.05, "heap bytes allocated: median per pass (paper, matrix) or per burst, stack start included (service)"},
	{"peak_rss_mb", "MB", "lower", 0.25, "peak resident memory of the benchmark process; it moves with when the garbage collector runs"},
	{"sim_cycles", "cycles", "lower", 0.2, "simulated cycles summed over the RunAll and stride simulations of a pass (paper, matrix) or over every simulation of the first five bursts' jobs (service); simulated time, deterministic per seed"},
	{"coal_eff", "ratio", "higher", 0.1, "mean Fig 8 coalescing efficiency of the two-phase-mode simulations (simulated)"},
	{"fig15_speedup", "ratio", "higher", 0.1, "mean over the RunAll rows of MSHR-based runtime over two-phase runtime, the Fig 15 comparison as a speedup ratio (simulated)"},
	{"paper_err_pp", "pp", "lower", 0.15, "largest absolute error in percentage points of the RunAll rows' mean coalescing efficiencies (MSHR-based, DMC-only, two-phase) and mean Fig 15 improvement against the paper's 31.53, 38.13, 47.47 and 13.14 %"},
	{"sustained_jps", "1/s", "higher", 0.25, "jobs completed per second while the system runs flat out: grid jobs per pass, median over passes (paper, matrix); jobs of a burst over the seconds from its first send to its last job done, median over the bursts (service)"},
	{"ok_ratio", "ratio", "higher", 0.01, "operations that completed with correct output over operations attempted (1 - fail_ratio)"},
}

// perLayer are the per-layer metrics of the traced run. Host times come
// from spans the benchmark records around its own calls into each layer;
// simulated ones come exactly from the runs' Results.
var perLayer = []metricDef{
	{Name: "workloads.gen_ms", Unit: "ms", Better: "lower", Doc: "GenerateTrace per trace"},
	{Name: "sim.index_ms", Unit: "ms", Better: "lower", Doc: "NewTraceIndex per trace"},
	{Name: "sim.new_system_ms", Unit: "ms", Better: "lower", Doc: "NewSystem per call"},
	{Name: "sim.reset_ms", Unit: "ms", Better: "lower", Doc: "System.Reset per call"},
	{Name: "sim.step_ns", Unit: "ns", Better: "lower", Doc: "host time in Step per simulated access"},
	{Name: "sim.finish_ms", Unit: "ms", Better: "lower", Doc: "System.Finish per run"},
	{Name: "sim.payload_ms", Unit: "ms", Better: "lower", Doc: "AnalyzePayloadWith per analysis"},
	{Name: "sim.allocs_per_run", Unit: "count", Better: "lower", Doc: "heap allocations per simulation job of the serial replay"},
	{Name: "sim.stall_share", Unit: "ratio", Better: "lower", Doc: "core stall cycles over runtime x cores (simulated)"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower", Doc: "Hierarchy.Access per trace access, cold hierarchy replay"},
	{Name: "cache.llc_mpka", Unit: "1/kaccess", Better: "lower", Doc: "LLC misses per thousand L1 accesses (simulated)"},
	{Name: "cache.l1_hit_ratio", Unit: "ratio", Better: "higher", Doc: "L1 hits over L1 accesses (simulated)"},
	{Name: "sortnet.sort_ns", Unit: "ns", Better: "lower", Doc: "Network.Sort per 16-wide window of LLC miss lines"},
	{Name: "coalescer.self_ns", Unit: "ns", Better: "lower", Doc: "two-phase front-end self time per request of the miss-stream replay, backend calls excluded"},
	{Name: "coalescer.batch_fill", Unit: "ratio", Better: "higher", Doc: "mean sorter batch size over the sequence width (simulated)"},
	{Name: "coalescer.timeout_flush_share", Unit: "ratio", Better: "lower", Doc: "batches closed by timeout over all batches (simulated)"},
	{Name: "coalescer.dmc_merge_ratio", Unit: "ratio", Better: "higher", Doc: "requests merged by the DMC unit over requests (simulated)"},
	{Name: "coalescer.latency_cycles", Unit: "cycles", Better: "lower", Doc: "mean coalescer request latency, Fig 14 (simulated)"},
	{Name: "coalescer.crq_fill_cycles", Unit: "cycles", Better: "lower", Doc: "mean CRQ fill episode, Fig 13 (simulated)"},
	{Name: "mshr.merge_ratio", Unit: "ratio", Better: "higher", Doc: "merged targets over allocations plus merged targets (simulated)"},
	{Name: "mshr.full_stalls_pkr", Unit: "1/krequest", Better: "lower", Doc: "MSHR-full stalls per thousand coalescer requests (simulated)"},
	{Name: "mshr.splits", Unit: "count", Better: "lower", Doc: "split requests summed over the simulations (simulated)"},
	{Name: "frontend.warp_self_ns", Unit: "ns", Better: "lower", Doc: "warp front-end self time per request of the miss-stream replay"},
	{Name: "frontend.hetero_cycle_ratio", Unit: "ratio", Better: "lower", Doc: "runtime under the hetero scheduler over FR-FCFS for twin runs (simulated)"},
	{Name: "hmc.submit_ns", Unit: "ns", Better: "lower", Doc: "HMC SubmitPacket per packet, child spans of the replays"},
	{Name: "membackend.ddr_submit_ns", Unit: "ns", Better: "lower", Doc: "DDR SubmitPacket per packet"},
	{Name: "membackend.ideal_submit_ns", Unit: "ns", Better: "lower", Doc: "ideal SubmitPacket per packet"},
	{Name: "hmc.packet_bytes", Unit: "B", Better: "higher", Doc: "mean memory packet payload (simulated)"},
	{Name: "hmc.bank_conflict_ratio", Unit: "ratio", Better: "lower", Doc: "bank conflicts over memory requests (simulated)"},
	{Name: "hmc.conflict_wait_cycles", Unit: "cycles", Better: "lower", Doc: "busy-bank wait per memory request (simulated)"},
	{Name: "hmc.token_wait_cycles", Unit: "cycles", Better: "lower", Doc: "link token wait per memory request (simulated)"},
	{Name: "hmc.bw_eff", Unit: "ratio", Better: "higher", Doc: "requested bytes over bytes on the links (simulated)"},
	{Name: "sweep.parallel_eff", Unit: "ratio", Better: "higher", Doc: "summed worker group time over dispatch wall time x worker slots"},
	{Name: "sweep.groups", Unit: "count", Better: "lower", Doc: "job groups dispatched"},
	{Name: "dsweep.rungroup_ms", Unit: "ms", Better: "lower", Doc: "Coordinator.RunGroup per group, through a benchmark-side Dispatcher"},
	{Name: "dsweep.worker_ms", Unit: "ms", Better: "lower", Doc: "the worker's wrapped GroupRunner per group"},
	{Name: "dsweep.overhead_ms", Unit: "ms", Better: "lower", Doc: "rungroup_ms minus worker_ms: wire, queue and lease cost per group"},
	{Name: "dsweep.requeues", Unit: "count", Better: "lower", Doc: "groups requeued by the coordinator"},
	{Name: "dsweep.trace_cache_hit_ratio", Unit: "ratio", Better: "higher", Doc: "worker trace-cache hits over lookups"},
	{Name: "jobserv.submit_ms", Unit: "ms", Better: "lower", Doc: "median POST round trip: admission and ledger append"},
	{Name: "jobserv.queue_max", Unit: "count", Better: "lower", Doc: "most jobs queued at once"},
	{Name: "jobserv.refused", Unit: "count", Better: "lower", Doc: "submissions refused"},
	{Name: "jobserv.running_share", Unit: "ratio", Better: "lower", Doc: "mean share of the daemon's slots running a job"},
	{Name: "load.sustained_jps", Unit: "1/s", Better: "higher", Doc: "highest open-loop rate the service sustains: every ladder rung up to it keeps its p90 submit-to-done latency, timed from each job's due time, within the limit without a growing backlog, interpolated in log latency towards the first rung that misses (service); grid jobs per second of the traced pass through the service (paper, matrix)"},
	{Name: "load.done_p50_ms", Unit: "ms", Better: "lower", Doc: "median submit-to-done latency timed from each job's due time: jobs at the reference rate (service), the grids' sweep jobs (paper, matrix); too noisy on a shared host to gate, so it is reported here"},
	{Name: "load.done_p90_ms", Unit: "ms", Better: "lower", Doc: "90th-percentile submit-to-done latency over the same jobs"},
	{Name: "load.gen_late_ms", Unit: "ms", Better: "lower", Doc: "generator lateness at the highest percentile with 10 samples beyond it"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower", Doc: "traced over untraced wall time of a pass (paper, matrix) or reference-rung done_p50 (service); the traced pass runs through the service stack with the dispatch wrappers"},
}

// layerMap is which end-to-end metric each layer metric should move, on
// which workload, so later changes can name the numbers they expect to
// move and the ones they expect to stay.
var layerMap = []struct{ Layer, Moves string }{
	{"cache.access_ns, sim.payload_ms", "maccess_per_s on paper (streaming half: STREAM, SparseLU, FT, SP, LU); matrix should barely move"},
	{"coalescer.*, mshr.*, sortnet.sort_ns", "maccess_per_s on paper (irregular half: SSCA2, Health, EP, CG) and on the two-phase half of matrix; not service"},
	{"hmc.submit_ns", "maccess_per_s on paper only; prediction for matrix: no change"},
	{"frontend.warp_self_ns", "maccess_per_s on matrix only"},
	{"sim.new_system_ms, sim.reset_ms, workloads.gen_ms, sim.index_ms", "setup_s everywhere and maccess_per_s on matrix; paper should barely move"},
	{"sim.allocs_per_run", "heap_alloc_mb and peak_rss_mb"},
	{"dsweep.overhead_ms, jobserv.submit_ms, jobserv.queue_max", "maccess_per_s and sustained_jps on service only, and its load.sustained_jps, load.done_p50_ms and load.done_p90_ms"},
	{"every simulated counter", "sim_cycles, coal_eff, fig15_speedup and paper_err_pp; a change that only speeds up the simulator leaves all of them identical"},
}

// cmdDescribe prints the workloads, every metric with its definition, the
// service load ladder and the layer map.
func cmdDescribe(w io.Writer) {
	fmt.Fprintln(w, "Workloads:")
	for _, wl := range benchWorkloads {
		fmt.Fprintf(w, "  %-8s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintf(w, "\nService: bursts of %d jobs (untraced); ladder %v jobs/s, reference %g jobs/s, p90 limit %g ms (traced); every %dth job a RunAll sweep.\n",
		serviceBurstJobs, serviceRates, serviceRates[serviceRefRung], serviceLimitMs, serviceSweepEvery)
	fmt.Fprintln(w, "\nEnd-to-end metrics (tracing off; bound = share of the parent's median a change may lose):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-16s %-9s %-6s bound %-4g %s\n", m.Name, m.Unit, m.Better, m.Bound, m.Doc)
	}
	fmt.Fprintln(w, "\nPer-layer metrics (traced run):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-30s %-10s %-6s %s\n", m.Name, m.Unit, m.Better, m.Doc)
	}
	fmt.Fprintln(w, "\nWhich end-to-end metric each layer metric should move:")
	for _, l := range layerMap {
		fmt.Fprintf(w, "  %s\n      -> %s\n", l.Layer, l.Moves)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables above.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range benchWorkloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, fmt.Errorf("encode BENCHMARK.json: %w", err)
	}
	return buf.Bytes(), nil
}

// defaultRunSeconds is BENCHMARK.json's run_seconds.
const defaultRunSeconds = 30
