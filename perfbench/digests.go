package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"hmccoal"
	"hmccoal/internal/jobserv"
)

// digestsJSON holds the digests of every output of the default seed: per
// output item for the grid workloads, per job spec for the service. A run
// at the default seed must reproduce them; regenerate them with the
// digests command only for a change that is meant to alter simulated
// results.
//
//go:embed digests.json
var digestsJSON []byte

type storedSet struct {
	Paper   []string          `json:"paper"`
	Matrix  []string          `json:"matrix"`
	Service map[string]string `json:"service"`
}

func loadDigests() (storedSet, error) {
	var s storedSet
	err := json.Unmarshal(digestsJSON, &s)
	return s, err
}

// storedDigests returns the stored item digests of a grid workload when
// seed is the default seed. A missing or unreadable file yields an empty
// list, which fails every item.
func storedDigests(workload string, seed int64) ([]string, bool) {
	if seed != defaultSeed {
		return nil, false
	}
	s, _ := loadDigests()
	switch workload {
	case "paper":
		return s.Paper, true
	case "matrix":
		return s.Matrix, true
	}
	return nil, true
}

// storedServiceDigests returns the stored per-spec digests of the service
// when seed is the default seed.
func storedServiceDigests(seed int64) (map[string]string, bool) {
	if seed != defaultSeed {
		return nil, false
	}
	s, _ := loadDigests()
	return s.Service, true
}

// serviceSpecs is every spec the service mix can draw at seed.
func serviceSpecs(seed int64) []jobserv.Spec {
	var out []jobserv.Spec
	for _, be := range hmccoal.Backends() {
		for _, b := range hmccoal.Benchmarks() {
			for _, fe := range hmccoal.Frontends() {
				out = append(out, jobserv.Spec{Kind: jobserv.KindSingle, CPUs: serviceCPUs, Ops: serviceSingleOps, Seed: seed, Backend: be, Bench: b, Frontend: fe})
			}
		}
		out = append(out, jobserv.Spec{Kind: jobserv.KindSweep, Sweep: "runall", CPUs: serviceCPUs, Ops: serviceSweepOps, Seed: seed, Backend: be, Batch: sweepBatch})
	}
	return out
}

// cmdDigests prints the digests of the default seed's outputs.
func cmdDigests(stdout, stderr io.Writer) int {
	ctx := context.Background()
	var s storedSet
	for _, w := range []gridWorkload{paperWorkload(defaultSeed), matrixWorkload(defaultSeed)} {
		p, err := w.pass(ctx, workers())
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		var ds []string
		for _, it := range p.items() {
			ds = append(ds, digest(it))
		}
		if w.name == "paper" {
			s.Paper = ds
		} else {
			s.Matrix = ds
		}
	}
	refs, _, _, err := references(ctx, nil, nil, serviceSpecs(defaultSeed), nil, nil)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	s.Service = map[string]string{}
	for k, r := range refs {
		s.Service[k] = digest(string(r.doc))
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// cmdAccuracy prints the paper workload's accuracy metrics on the default
// seed and on the held-out seed, which no bound or scale was tuned on.
func cmdAccuracy(stdout, stderr io.Writer) int {
	fmt.Fprintf(stdout, "%-10s %10s %14s %13s\n", "seed", "coal_eff", "fig15_speedup", "paper_err_pp")
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		g := paperWorkload(seed).grids[0]
		out, err := g.run(context.Background(), hmccoal.SweepOptions{Workers: workers(), Batch: sweepBatch})
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		rep := newReport("paper", seed, false, stdout)
		var twoPhase []hmccoal.Result
		for _, r := range out.runs {
			twoPhase = append(twoPhase, r.TwoPhase)
		}
		reportAccuracy(rep, twoPhase, out.runs)
		a := accuracy(out.runs)
		fmt.Fprintf(stdout, "%-10d %10.4f %14.4f %13.3f   (MSHR %.2f%%, DMC %.2f%%, two-phase %.2f%%, Fig 15 improvement %.2f%%; paper 31.53, 38.13, 47.47, 13.14)\n",
			seed, rep.values["coal_eff"], rep.values["fig15_speedup"], rep.values["paper_err_pp"], 100*a[0], 100*a[1], 100*a[2], 100*a[3])
	}
	return 0
}
