// Timeline reconstruction (the paper's Fig. 4 scenario): reconstruct
// per-GPU training timelines of one job purely from its network flows,
// render them as swimlanes, and score the step boundaries against the
// simulator's ground truth (the stand-in for PyTorch Profiler reference
// data).
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/testbed"
	"github.com/llmprism/llmprism/viz"
)

func main() {
	topoSpec := llmprism.TopologySpec{Nodes: 16, NodesPerLeaf: 8, Spines: 4}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 16, TargetStep: 5 * time.Second, Style: testbed.StyleZeRO, StyleSet: true},
	}, 3)
	if err != nil {
		log.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name:    "timelines",
		Topo:    topoSpec,
		Jobs:    jobs,
		Horizon: 60 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	report, err := llmprism.New().AnalyzeFrame(res.Frame, res.Topo)
	if err != nil {
		log.Fatal(err)
	}
	job := report.Jobs[0]

	// Rank selection: the first GPU of each of the first 8 servers.
	var ranks []llmprism.Addr
	for r, tl := range job.Timelines {
		if len(tl.Steps) > 1 {
			ranks = append(ranks, r)
		}
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	if len(ranks) > 8 {
		ranks = ranks[:8]
	}
	if len(ranks) == 0 {
		log.Fatal("no timelines reconstructed")
	}

	ref := job.Timelines[ranks[0]]
	mean := testbed.MeanStepDuration(ref)
	from := ref.Steps[len(ref.Steps)/2].Start
	fmt.Printf("reconstructed %d training steps per rank, mean step %v\n\n",
		len(ref.Steps), mean.Round(time.Millisecond))
	fmt.Println(viz.TimelineSwimlanes(job.Records, job.Types, job.Timelines, ranks, from, from.Add(2*mean+mean/2), 110))

	// Per-step detail for one rank.
	fmt.Printf("steps of rank %v:\n", ranks[0])
	for _, s := range ref.Steps {
		fmt.Printf("  step %2d: %v  (DP segment %v, %d comm events)\n",
			s.Index, s.Duration().Round(time.Millisecond),
			s.DPDuration().Round(time.Millisecond), s.Events)
	}

	// Score against ground truth, as §V-C does against profiler data.
	score := testbed.ScoreTimelines(job.Timelines, res.Truth.Epoch, res.Truth.Jobs[0])
	fmt.Printf("\nreconstruction error vs ground truth: mean %.3f%%, max %.3f%% over %d steps (paper: ≤ 0.3%%)\n",
		100*score.MeanRelError, 100*score.MaxRelError, score.MatchedSteps)
}
