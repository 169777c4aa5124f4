package main

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The compare mode measures a local git ref against the working tree
// with identical benchmark code: it exports the ref with git archive (no
// network), overlays this checkout's perfbench directory onto it, builds
// both, and runs them in alternating order for each seed of a pair. Each
// workload and metric gets both sides' median and quartiles, the share of
// pairs the working tree wins, and a verdict by the benchmark's bound.

// resultLine is the last line a run prints.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func cmdCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ref := fs.String("ref", "HEAD", "git ref to compare the working tree against")
	names := fs.String("workloads", "paper,matrix,service", "comma-separated workloads")
	pairs := fs.Int("pairs", 10, "ref/working-tree run pairs per workload (at least 10 for a claim)")
	seconds := fs.Float64("seconds", defaultRunSeconds, "measured seconds per run")
	seed := fs.Int64("seed", 1000, "seed of the first pair; pair i uses seed+i")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pairs < 1 {
		fmt.Fprintln(stderr, "perfbench compare: -pairs must be at least 1")
		return 2
	}
	refBin, refRoot, err := buildRef(*ref)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	selfBin, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 1
	}
	fmt.Fprintf(stdout, "# compare %s (A) against the working tree (B): %d pairs, %gs runs, alternating order\n", *ref, *pairs, *seconds)
	status := 0
	for _, w := range strings.Split(*names, ",") {
		a, b := make([]sample, *pairs), make([]sample, *pairs)
		for i := 0; i < *pairs; i++ {
			argv := []string{"--workload", w, "--seed", fmt.Sprint(*seed + int64(i)), "--seconds", fmt.Sprint(*seconds), "--trace", "0"}
			sides := []struct {
				bin, dir string
				out      *sample
			}{{refBin, refRoot, &a[i]}, {selfBin, ".", &b[i]}}
			if i%2 == 1 {
				sides[0], sides[1] = sides[1], sides[0]
			}
			for _, s := range sides {
				*s.out = runOnce(s.bin, s.dir, argv)
				if s.out.err != nil {
					fmt.Fprintf(stderr, "perfbench compare: %s pair %d: %v\n", w, i, s.out.err)
					status = 1
				}
			}
		}
		fmt.Fprintf(stdout, "\n## %s\n", w)
		for _, line := range compareTable(endToEnd, a, b) {
			fmt.Fprintln(stdout, line)
		}
	}
	return status
}

// verdict classifies one metric's A and B samples by the rules of the
// benchmark: a gain needs B to win at least nine tenths of the pairs and
// the medians to differ by more than A's interquartile distance; a
// regression is B's median worse than A's by more than the bound; when
// either side spreads wider than the bound the metric is unresolved
// unless every B run beats every A run.
func verdict(m metricDef, a, b []float64) (string, float64) {
	wins, n := 0, min(len(a), len(b))
	better := func(x, y float64) bool {
		if m.Better == "lower" {
			return x < y
		}
		return x > y
	}
	for i := 0; i < n; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	win := ratio(float64(wins), float64(n))
	if n == 0 {
		return "no data", 0
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	worse := (mb - ma) / math.Abs(ma)
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case spread(a) > m.Bound || spread(b) > m.Bound:
		if allBetter {
			return "better (every run)", win
		}
		return "unresolved (spread above bound)", win
	case win >= 0.9 && math.Abs(mb-ma) > q3-q1 && better(mb, ma):
		return "better", win
	case worse > m.Bound:
		return "WORSE", win
	}
	return "within bound", win
}

// compareTable renders one workload's comparison. a[i] and b[i] are the
// two runs of pair i. Every run that printed a result counts in the failed
// outputs line; only pairs whose two runs both exited 0 give metric
// samples, so the samples stay paired and no number from a run with wrong
// outputs counts.
func compareTable(defs []metricDef, a, b []sample) []string {
	lines := []string{fmt.Sprintf("%-30s %-9s %28s %28s %5s  %s", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "win", "verdict")}
	fails := func(rs []sample) (f, t int) {
		for _, r := range rs {
			if r.decoded {
				f += r.res.Failed
				t += r.res.Attempted
			}
		}
		return
	}
	for _, m := range defs {
		va, vb := pairValues(a, b, m.Name)
		v, win := verdict(m, va, vb)
		qa1, qa3 := quartiles(va)
		qb1, qb3 := quartiles(vb)
		lines = append(lines, fmt.Sprintf("%-30s %-9s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] %5.2f  %s (n=%d/%d)",
			m.Name, m.Unit, median(va), qa1, qa3, median(vb), qb1, qb3, win, v, len(va), len(vb)))
	}
	fa, ta := fails(a)
	fb, tb := fails(b)
	lines = append(lines, fmt.Sprintf("failed outputs: A %d of %d, B %d of %d", fa, ta, fb, tb))
	return lines
}

// pairValues returns metric name's values from the pairs whose two runs
// both exited 0 and report it, A's and B's in pair order.
func pairValues(a, b []sample, name string) (va, vb []float64) {
	for i := range a {
		if a[i].err != nil || b[i].err != nil {
			continue
		}
		x, okA := a[i].res.Metrics[name]
		y, okB := b[i].res.Metrics[name]
		if okA && okB {
			va = append(va, x.Value)
			vb = append(vb, y.Value)
		}
	}
	return va, vb
}

// sample is one benchmark run of a compare pair.
type sample struct {
	res     resultLine
	decoded bool  // the run printed a result line
	err     error // non-nil unless it exited 0 with a result
}

// runOnce runs one benchmark binary from dir and decodes its last line.
func runOnce(bin, dir string, argv []string) sample {
	cmd := exec.Command(bin, argv...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s sample
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s.res); err != nil {
		s.err = errors.Join(runErr, fmt.Errorf("decode result: %w", err))
		return s
	}
	s.decoded, s.err = true, runErr
	return s
}

// buildRef exports ref into the build directory, overlays this checkout's
// benchmark sources, and builds the benchmark there. It returns the
// binary and the exported tree's root.
func buildRef(ref string) (bin, root string, err error) {
	sha, err := exec.Command("git", "rev-parse", "--verify", ref+"^{commit}").Output()
	if err != nil {
		return "", "", fmt.Errorf("resolve %s: %w", ref, err)
	}
	id := strings.TrimSpace(string(sha))[:12]
	base := os.Getenv("PERFBENCH_BUILD")
	if base == "" {
		base = ".bench_build"
	}
	if base, err = filepath.Abs(base); err != nil {
		return "", "", err
	}
	root = filepath.Join(base, "compare", id, "src")
	if err := os.RemoveAll(root); err != nil {
		return "", "", err
	}
	archive, err := exec.Command("git", "archive", "--format=tar", id).Output()
	if err != nil {
		return "", "", fmt.Errorf("git archive %s: %w", id, err)
	}
	if err := untar(bytes.NewReader(archive), root); err != nil {
		return "", "", err
	}
	if err := os.RemoveAll(filepath.Join(root, "perfbench")); err != nil {
		return "", "", err
	}
	if err := copyTree("perfbench", filepath.Join(root, "perfbench")); err != nil {
		return "", "", err
	}
	bin = filepath.Join(base, "compare", id, "perfbench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Dir = filepath.Join(root, "perfbench")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return "", "", fmt.Errorf("build %s: %w", id, err)
	}
	return bin, root, nil
}

// untar extracts the regular files and directories of a tar stream under
// dir.
func untar(r io.Reader, dir string) error {
	tr := tar.NewReader(r)
	for {
		h, err := tr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		path := filepath.Join(dir, filepath.FromSlash(h.Name))
		if !strings.HasPrefix(path, filepath.Clean(dir)+string(os.PathSeparator)) {
			return fmt.Errorf("archive entry %q leaves the tree", h.Name)
		}
		switch h.Typeflag {
		case tar.TypeDir:
			if err := os.MkdirAll(path, 0o755); err != nil {
				return err
			}
		case tar.TypeReg:
			if err := writeFile(path, tr, os.FileMode(h.Mode)&0o777); err != nil {
				return err
			}
		}
	}
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return writeFile(target, f, 0o644)
	})
}

func writeFile(path string, r io.Reader, mode os.FileMode) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, mode|0o200)
	if err != nil {
		return err
	}
	if _, err := io.Copy(f, r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
