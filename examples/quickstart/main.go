// Quickstart: simulate a small multi-tenant training platform, run the
// full LLMPrism pipeline on its flow records, and print what the platform
// operator learns — all through the public API.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/testbed"
	"github.com/llmprism/llmprism/viz"
)

func main() {
	// A 24-server fabric (192 GPUs) hosting two tenant jobs.
	topoSpec := llmprism.TopologySpec{Nodes: 24, NodesPerLeaf: 8, Spines: 4}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 16, TargetStep: 3 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 42)
	if err != nil {
		log.Fatal(err)
	}

	res, err := testbed.Simulate(testbed.Scenario{
		Name:    "quickstart",
		Topo:    topoSpec,
		Jobs:    jobs,
		Horizon: 30 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collected %d flow records from %d GPUs\n\n", len(res.Records), res.Topo.Endpoints())

	// The black-box analysis: only the collected flow frame + the
	// address→server map. (Analyze accepts a plain []FlowRecord too.)
	report, err := llmprism.New().AnalyzeFrame(res.Frame, res.Topo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("recognized %d training jobs:\n", len(report.Jobs))
	for i, job := range report.Jobs {
		var dp, pp int
		for _, t := range job.Types {
			if t == llmprism.TypeDP {
				dp++
			} else {
				pp++
			}
		}
		var meanStep time.Duration
		var n int
		for _, tl := range job.Timelines {
			if d := testbed.MeanStepDuration(tl); d > 0 {
				meanStep += d
				n++
			}
		}
		if n > 0 {
			meanStep /= time.Duration(n)
		}
		fmt.Printf("  job %d: %3d GPUs on %2d servers | %3d DP pairs, %3d PP pairs, %d DP groups | mean step %v\n",
			i, len(job.Cluster.Endpoints), len(job.Cluster.Servers),
			dp, pp, len(job.DPGroups), meanStep.Round(time.Millisecond))
	}

	fmt.Printf("\nalerts:\n%s", viz.AlertList(report.Alerts()))

	// The simulation also carries ground truth — verify the analysis.
	var clusters [][]llmprism.Addr
	for _, job := range report.Jobs {
		clusters = append(clusters, job.Cluster.Endpoints)
	}
	score := testbed.ScoreRecognition(clusters, res.Truth.Jobs)
	fmt.Printf("\nground truth check: %d/%d jobs recognized exactly (perfect=%v)\n",
		score.ExactMatches, score.TrueJobs, score.Perfect())
}
