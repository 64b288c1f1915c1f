package main

import (
	"testing"
	"time"
)

// TestWorkloadsSmall runs every workload and its traced pass at the
// smallest size the workloads allow, with no timing assertion: every
// correctness check must pass, and the metric and workload names the
// harness emits must be exactly the ones BENCHMARK.json declares.
func TestWorkloadsSmall(t *testing.T) {
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(ws) != len(e.spec.Workloads) {
		t.Fatalf("harness has %d workloads, BENCHMARK.json %d", len(ws), len(e.spec.Workloads))
	}
	declared := map[string]bool{}
	for _, ms := range e.spec.EndToEnd {
		declared[ms.Name] = true
	}
	for _, ms := range e.spec.PerLayer {
		declared[ms.Name] = true
	}
	for i, w := range ws {
		if w.name != e.spec.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, w.name, e.spec.Workloads[i].Name)
		}
		// store-readback shares its trace and flags with paced-mix, so its
		// traced pass would repeat that one's; saturate-hop's is the slow one
		// under the race detector, which CI pairs with -short.
		traced := w.name != "store-readback" && !(testing.Short() && w.name == "saturate-hop")
		res, err := runWorkload(e, w, 3, 1, traced)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed > 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d checks failed: %v", w.name, res.Failed, res.Attempted, res.Failures)
		}
		for _, mode := range []bool{false, traced} {
			if _, err := resultLine(e.spec, res, mode); err != nil {
				t.Errorf("%s (traced=%v): %v", w.name, mode, err)
			}
		}
		for name := range res.Metrics {
			if !declared[name] {
				t.Errorf("%s: harness measured %q, which BENCHMARK.json does not declare", w.name, name)
			}
		}
	}
}

// TestSeedFixesTraceBytes checks that a seed is the only input: the same
// seed reproduces a perturbed trace's wire bytes exactly, another seed
// does not.
func TestSeedFixesTraceBytes(t *testing.T) {
	var w *workload
	for _, c := range workloads() {
		if c.perturb.swapProb > 0 {
			w = c
		}
	}
	build := func(seed int64) *trace {
		tr, err := buildTrace(w.traces[0], w.fabric, 90*time.Second, seed, w.flags.geo, w.perturb)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b, c := build(5), build(5), build(6)
	if a.digest != b.digest {
		t.Errorf("seed 5 produced two different traces: %s vs %s", a.digestHex(), b.digestHex())
	}
	if a.digest == c.digest {
		t.Errorf("seeds 5 and 6 produced the same trace")
	}
	if a.lateAssignments == 0 {
		t.Errorf("the perturbed trace injects no late record; the late-drop check would be vacuous")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}
