// Command bench is the repository's benchmark: collector bytes →
// llmprismd → report → store, end to end and layer by layer. It builds
// cmd/llmprismd from the checkout, generates seeded traces with the
// platform simulator, drives the workloads BENCHMARK.json names against a
// real daemon process, re-reads the stores it wrote, checks every output
// against a reference, and prints every metric by name and unit. See
// README.md in this directory.
//
// Usage (from the repository root):
//
//	go run ./bench                                  every workload, end-to-end metrics
//	go run ./bench -trace 1                         … plus the per-layer pass
//	go run ./bench -workload paced-mix -seed 7      one workload; last stdout line is JSON
//	go run ./bench -repeat 5 -out a.json            A/A: median and quartiles per pair
//	go run ./bench -compare a.json b.json           apply BENCHMARK.json's bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "run only this workload (default: all)")
		seed    = flag.Int64("seed", 1, "trace seed: the only input")
		seconds = flag.Float64("seconds", 0, "measuring budget per run (default: BENCHMARK.json run_seconds)")
		traced  = flag.Int("trace", 0, "1 runs the per-layer pass and writes spans to bench/out/")
		repeat  = flag.Int("repeat", 0, "run each workload this many times and print median and quartiles")
		out     = flag.String("out", "", "with -repeat: write every run's metrics to this JSON file")
		compare = flag.Bool("compare", false, "compare two -repeat files: bench -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two files written by -repeat -out")
		}
		root, err := findRoot()
		if err != nil {
			return err
		}
		spec, err := loadSpec(root)
		if err != nil {
			return err
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	if *seconds <= 0 {
		*seconds = float64(e.spec.RunSeconds)
	}
	var selected []*workload
	for _, w := range workloads() {
		if *name == "" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *repeat > 0 {
		return repeatRuns(e, selected, *seed, *seconds, *traced == 1, *repeat, *out)
	}
	failed := false
	for _, w := range selected {
		res, err := runWorkload(e, w, *seed, *seconds, *traced == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(e.spec, res)
		line, err := resultLine(e.spec, res, *traced == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		fmt.Println(line)
		failed = failed || res.Failed > 0
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// printResult writes the human-readable table to standard error, keeping
// standard output for the result line.
func printResult(spec *benchSpec, res *result) {
	w := os.Stderr
	fmt.Fprintf(w, "== %s (seed %d): %d checks, %d failed\n", res.Workload, res.Seed, res.Attempted, res.Failed)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	// Every metric the run measured is shown; the daemon-side per-layer
	// ones come for free with any run, the shadow's only with -trace 1.
	for _, g := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
		for _, ms := range g {
			if v, ok := res.Metrics[ms.Name]; ok {
				fmt.Fprintf(w, "   %-36s %14.4f %s\n", ms.Name, v, ms.Unit)
			}
		}
	}
	keys := make([]string, 0, len(res.Counts))
	for k := range res.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "   count %-30s %14d\n", k, res.Counts[k])
	}
}

// resultLine renders the driver-facing JSON object: every end-to-end
// metric untraced, every per-layer metric traced. A metric the spec
// names but the run did not produce — or the reverse, for the mode's own
// family — is a harness bug and fails the run.
func resultLine(spec *benchSpec, res *result, traced bool) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	for _, ms := range want {
		v, ok := res.Metrics[ms.Name]
		if !ok {
			return "", fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", ms.Name)
		}
		if math.IsNaN(v) {
			return "", fmt.Errorf("metric %s is NaN", ms.Name)
		}
		if math.IsInf(v, 0) {
			return "", fmt.Errorf("metric %s is infinite", ms.Name)
		}
		metrics[ms.Name] = mv{v, ms.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, metrics})
	return string(b), err
}
