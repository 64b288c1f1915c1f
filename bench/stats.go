package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the three cut points of values exactly as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive method),
// so spreads printed here are the ones the benchmark's driver will see.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	n := len(data)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (data[j-1]*float64(4-delta) + data[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runFile is what -repeat -out writes and -compare reads.
type runFile struct {
	Runs []*result `json:"runs"`
}

// series collects one (workload, metric) pair's values across runs.
func (f *runFile) series(workload, metric string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// repeatRuns is the A/A tool: every selected workload n times on one seed,
// then median and quartiles per (metric, workload), and a check that what
// must repeat exactly — trace digests and exact counts — did.
func repeatRuns(e *env, ws []*workload, seed int64, seconds float64, traced bool, n int, out string) error {
	if n < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs to give quartiles")
	}
	var file runFile
	failed := false
	for _, w := range ws {
		var first *result
		for i := 0; i < n; i++ {
			res, err := runWorkload(e, w, seed, seconds, traced)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", w.name, i+1, err)
			}
			fmt.Fprintf(os.Stderr, "%s run %d/%d: %d checks, %d failed\n", w.name, i+1, n, res.Attempted, res.Failed)
			failed = failed || res.Failed > 0
			file.Runs = append(file.Runs, res)
			if first == nil {
				first = res
				continue
			}
			for k, v := range first.Digests {
				if res.Digests[k] != v {
					failed = true
					fmt.Printf("%s: trace %s digest changed between runs of seed %d\n", w.name, k, seed)
				}
			}
			for k, v := range first.Counts {
				if res.Counts[k] != v {
					failed = true
					fmt.Printf("%s: exact count %s read %d then %d on seed %d\n", w.name, k, v, res.Counts[k], seed)
				}
			}
		}
	}
	fmt.Printf("%-16s %-34s %14s %14s %14s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	specs := e.spec.EndToEnd
	if traced {
		specs = append(append([]metricSpec(nil), specs...), e.spec.PerLayer...)
	}
	for _, w := range ws {
		for _, ms := range specs {
			vals := file.series(w.name, ms.Name)
			if len(vals) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			fmt.Printf("%-16s %-34s %14.4f %14.4f %14.4f %7.1f%%  %s\n", w.name, ms.Name, q1, q2, q3, 100*spreadOf(q1, q2, q3), ms.Unit)
		}
	}
	if out != "" {
		b, err := json.MarshalIndent(&file, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, b, 0o644); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

func spreadOf(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles applies BENCHMARK.json's bounds to two sets of runs: for
// every end-to-end (metric, workload) pair, b is worse when its median is
// past a's by more than the bound, unresolved when either side's spread is
// wider than the bound (unless every run of b beats every run of a), and
// not worse otherwise.
func compareFiles(spec *benchSpec, pathA, pathB string) error {
	load := func(path string) (*runFile, error) {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f runFile
		if err := json.Unmarshal(b, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &f, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-16s %-18s %14s %14s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := a.series(w.Name, ms.Name), b.series(w.Name, ms.Name)
			if len(va) < 2 || len(vb) < 2 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			bound := 0.0
			if ms.Bound != nil {
				bound = *ms.Bound
			}
			// change is positive when b is worse.
			change := (b2 - a2) / a2
			if ms.Better == "higher" {
				change = -change
			}
			allBetter := true
			for _, x := range vb {
				for _, y := range va {
					if (ms.Better == "higher" && x <= y) || (ms.Better != "higher" && x >= y) {
						allBetter = false
					}
				}
			}
			verdict := "not worse"
			switch {
			case change > bound:
				verdict = "WORSE"
				worse++
			case !allBetter && (spreadOf(a1, a2, a3) > bound || spreadOf(b1, b2, b3) > bound):
				verdict = "unresolved (spread wider than bound)"
			}
			fmt.Printf("%-16s %-18s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n", w.Name, ms.Name, a2, b2, 100*change, 100*bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d end-to-end pairs are worse than their bound allows", worse)
	}
	return nil
}
