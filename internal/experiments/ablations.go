package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/erspan"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/pool"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
)

// NetsimModeResult compares fluid fair-share against analytic rate
// assignment (ablation A1).
type NetsimModeResult struct {
	FairShareError, AnalyticError float64
	FairShareWall, AnalyticWall   time.Duration
}

// AblationNetsimMode runs the Fig. 4 reconstruction under both network
// models. The analytic mode ignores contention from later arrivals, which
// perturbs flow timings; the experiment quantifies the effect on timeline
// accuracy and simulation cost.
func AblationNetsimMode(ctx context.Context, opts Options) (*NetsimModeResult, error) {
	opts = opts.withDefaults()
	if opts.Scale > 0.5 {
		opts.Scale = 0.5 // A1 never needs the full 1,024-GPU job
	}
	// The two network modes re-run the same scenario independently, so
	// they fan out to the worker pool.
	runs, err := pool.Map(ctx, opts.Workers,
		[]netsim.Mode{netsim.ModeFairShare, netsim.ModeAnalytic},
		func(ctx context.Context, _ int, mode netsim.Mode) (*Fig4Result, error) {
			return fig4WithMode(ctx, opts, netsim.Config{Mode: mode})
		})
	if err != nil {
		return nil, err
	}
	fair, analytic := runs[0], runs[1]
	return &NetsimModeResult{
		FairShareError: fair.Score.MeanRelError,
		AnalyticError:  analytic.Score.MeanRelError,
		FairShareWall:  fair.SimWall,
		AnalyticWall:   analytic.SimWall,
	}, nil
}

// Report renders A1.
func (r *NetsimModeResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "A1 — netsim fluid fair-share vs analytic mode (Fig. 4 workload)\n")
	fmt.Fprintf(&sb, "  %-12s %-18s %s\n", "mode", "timeline error", "sim wall")
	fmt.Fprintf(&sb, "  %-12s %-18s %v\n", "fair-share", fmtPct(r.FairShareError), r.FairShareWall.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  %-12s %-18s %v\n", "analytic", fmtPct(r.AnalyticError), r.AnalyticWall.Round(time.Millisecond))
	return sb.String()
}

// SplitterResult compares BOCD against the naive gap-threshold splitter
// (ablation A2).
type SplitterResult struct {
	PairsEvaluated int
	// Mean absolute relative error of the detected step count per DP pair.
	BOCDStepCountErr, NaiveStepCountErr float64
}

// AblationStepSplitter simulates one job and, for every DP pair, compares
// the number of steps found by the BOCD splitter and by a naive
// 5×-median-gap threshold against the true step count in the window.
// The naive splitter fragments DP bursts (bucket chains pause longer than
// the median gap) while BOCD's run-length posterior plus the separation
// guard track the two-regime structure.
func AblationStepSplitter(ctx context.Context, opts Options) (*SplitterResult, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := scaleInt(16, opts.Scale, 8)
	topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 8, Spines: 4}
	jobs, err := platform.PlanJobs(topoSpec, []platform.JobPlan{
		{Nodes: nodes, TargetStep: 5 * time.Second},
	}, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: A2: %w", err)
	}
	res, err := platform.Run(platform.Scenario{
		Name: "a2", Topo: topoSpec, Jobs: jobs, Horizon: 60 * time.Second,
		Collector: erspan.Config{TimeJitter: 2 * time.Microsecond, Seed: opts.Seed},
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: A2: %w", err)
	}
	tj := res.Truth.Jobs[0]

	// True complete steps within the horizon (per stage; use rank 0's).
	trueSteps := len(tj.Steps[tj.Addrs[0]])
	if trueSteps == 0 {
		return nil, fmt.Errorf("experiments: A2: no true steps")
	}

	byPair := flow.GroupByPair(res.Records)
	// Fold pairs in sorted order so the float error sums are reproducible
	// run to run (map iteration order is not).
	pairs := make([]flow.Pair, 0, len(byPair))
	for pair := range byPair {
		pairs = append(pairs, pair)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	out := &SplitterResult{}
	for _, pair := range pairs {
		recs := byPair[pair]
		if tj.Pairs[pair] != truth.PairDP || len(recs) < 8 {
			continue
		}
		times := make([]time.Time, len(recs))
		for i, r := range recs {
			times[i] = r.Start
		}
		nBOCD := len(bocd.SplitTimes(times, bocd.SplitConfig{}))
		nNaive := len(bocd.NaiveSplitTimes(times, 5))
		out.PairsEvaluated++
		out.BOCDStepCountErr += relErr(nBOCD, trueSteps)
		out.NaiveStepCountErr += relErr(nNaive, trueSteps)
	}
	if out.PairsEvaluated > 0 {
		out.BOCDStepCountErr /= float64(out.PairsEvaluated)
		out.NaiveStepCountErr /= float64(out.PairsEvaluated)
	}
	return out, nil
}

func relErr(got, want int) float64 {
	d := got - want
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(want)
}

// Report renders A2.
func (r *SplitterResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "A2 — BOCD vs naive gap-threshold step splitting (%d DP pairs)\n", r.PairsEvaluated)
	fmt.Fprintf(&sb, "  %-22s %s\n", "splitter", "mean step-count error")
	fmt.Fprintf(&sb, "  %-22s %s\n", "BOCD (+sep. guard)", fmtPct(r.BOCDStepCountErr))
	fmt.Fprintf(&sb, "  %-22s %s\n", "naive 5x median", fmtPct(r.NaiveStepCountErr))
	return sb.String()
}

// RingCountResult compares refinement repair across collective ring counts
// (ablation A3).
type RingCountResult struct {
	Rows []RingCountRow
}

// RingCountRow is one ring-count configuration's accuracy.
type RingCountRow struct {
	Rings               int
	AccWithout, AccWith float64
	PairsEvaluated      int
}

// AblationRingCount measures pair-classification accuracy with and without
// refinement for jobs using 1, 2 and 4 collective rings, under a short
// truncating window. A single ring leaves each DP group a bare cycle:
// correlated misclassifications can disconnect it and the transitive
// refinement cannot repair the lost pairs; multi-ring collectives densify
// the DP graph and keep refinement at 100%.
func AblationRingCount(ctx context.Context, opts Options) (*RingCountResult, error) {
	opts = opts.withDefaults()
	nodes := scaleInt(32, opts.Scale, 16)
	ringCounts := []int{1, 2, 4}
	const runs = 3

	// Every (ring count, run) cell is an independent simulation, so the
	// whole grid fans out to the worker pool; the per-ring fold below sums
	// run results in run order, matching the sequential nesting exactly.
	type cellResult struct {
		accWith, accWithout float64
		pairs               int
		evaluated           bool
	}
	type cellSpec struct{ rings, run int }
	var cells []cellSpec
	for _, rings := range ringCounts {
		for run := 0; run < runs; run++ {
			cells = append(cells, cellSpec{rings, run})
		}
	}
	results, err := pool.Map(ctx, opts.Workers, cells,
		func(ctx context.Context, _ int, cell cellSpec) (cellResult, error) {
			topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 8, Spines: 4}
			jobs, err := platform.PlanJobs(topoSpec, []platform.JobPlan{
				{Nodes: nodes, TargetStep: 20 * time.Second},
			}, opts.Seed+int64(cell.run)*31)
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: A3: %w", err)
			}
			jobs[0].Rings = cell.rings
			jobs[0].FP32GradReduce = true
			res, err := platform.Run(platform.Scenario{
				Name: "a3", Topo: topoSpec, Jobs: jobs, Horizon: 2 * time.Minute,
				Collector: erspan.Config{
					LossProb:     0.06,
					AggregateGap: 2 * time.Millisecond,
					Seed:         opts.Seed + int64(cell.run),
				},
			})
			if err != nil {
				return cellResult{}, fmt.Errorf("experiments: A3: %w", err)
			}
			views := jobViews(flow.NewFrame(res.Window(40*time.Second, time.Minute)), res.Topo)
			if len(views) == 0 {
				return cellResult{}, nil
			}
			tj := res.Truth.Jobs[0]
			with := pairAccuracy(parallel.IdentifyView(views[0], parallel.Config{}).Types, tj)
			without := pairAccuracy(parallel.IdentifyView(views[0], parallel.Config{DisableRefinement: true}).Types, tj)
			return cellResult{
				accWith:    with.Accuracy(),
				accWithout: without.Accuracy(),
				pairs:      with.Total,
				evaluated:  true,
			}, nil
		})
	if err != nil {
		return nil, err
	}

	out := &RingCountResult{}
	for ri, rings := range ringCounts {
		var accWith, accWithout float64
		var pairs int
		for run := 0; run < runs; run++ {
			cell := results[ri*runs+run]
			if !cell.evaluated {
				continue
			}
			accWith += cell.accWith
			accWithout += cell.accWithout
			pairs += cell.pairs
		}
		out.Rows = append(out.Rows, RingCountRow{
			Rings:          rings,
			AccWith:        accWith / runs,
			AccWithout:     accWithout / runs,
			PairsEvaluated: pairs,
		})
	}
	return out, nil
}

// Report renders A3.
func (r *RingCountResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "A3 — collective ring count vs refinement repair (1-min truncating window)\n")
	fmt.Fprintf(&sb, "  %-8s %-16s %-16s %s\n", "rings", "w/o refinement", "with refinement", "pairs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-8d %-16s %-16s %d\n",
			row.Rings, fmtPct(row.AccWithout), fmtPct(row.AccWith), row.PairsEvaluated)
	}
	return sb.String()
}
