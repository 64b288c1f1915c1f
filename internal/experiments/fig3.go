package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
	"github.com/llmprism/llmprism/internal/viz"
)

// fig3JobNodeCounts is the tenant mix of the paper's Fig. 3 cluster:
// 19 jobs over a 360-node (2,880-GPU) fabric, leaving some nodes idle.
var fig3JobNodeCounts = []int{
	32, 32, 24, 24, 24, 16, 16, 16, 16, 16, 16, 16, 16, 16, 12, 12, 12, 8, 8,
}

// Fig3Result is the outcome of the job-recognition experiment.
type Fig3Result struct {
	GPUs                 int
	TrueJobs             int
	CrossMachineClusters int
	JobClusters          int
	Recognition          truth.RecognitionScore
	WindowFlows          int
	// GridBefore/GridAfter are Fig. 3-style renderings of the
	// cross-machine and job-level cluster views.
	GridBefore, GridAfter string
	SimWall, AnalysisWall time.Duration
}

// Fig3 reproduces the paper's Fig. 3/§V-A: recognize every training job on
// a multi-tenant cluster from a one-minute flow window.
func Fig3(ctx context.Context, opts Options) (*Fig3Result, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := scaleInt(360, opts.Scale, 24)
	topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 15, Spines: 8}

	var plans []platform.JobPlan
	used := 0
	for _, count := range fig3JobNodeCounts {
		c := scaleInt(count, opts.Scale, 4)
		if used+c > nodes {
			break
		}
		plans = append(plans, platform.JobPlan{Nodes: c, TargetStep: 10 * time.Second})
		used += c
	}

	jobs, err := platform.PlanJobs(topoSpec, plans, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}
	simStart := time.Now()
	res, err := platform.Run(platform.Scenario{
		Name:    "fig3",
		Topo:    topoSpec,
		Jobs:    jobs,
		Horizon: 95 * time.Second,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig3: %w", err)
	}
	simWall := time.Since(simStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Analyze a one-minute window, as in the paper.
	window := res.Window(30*time.Second, time.Minute)
	anStart := time.Now()
	frame := flow.NewFrame(window)
	cross := jobrec.CrossMachineClustersFrame(frame)
	clusters := jobrec.RecognizeFrame(frame, res.Topo, jobrec.Config{})
	anWall := time.Since(anStart)

	predicted := make([][]flow.Addr, len(clusters))
	for i, c := range clusters {
		predicted[i] = c.Endpoints
	}
	out := &Fig3Result{
		GPUs:                 res.Topo.Endpoints(),
		TrueJobs:             len(res.Truth.Jobs),
		CrossMachineClusters: len(cross),
		JobClusters:          len(clusters),
		Recognition:          truth.ScoreRecognition(predicted, res.Truth.Jobs),
		WindowFlows:          len(window),
		SimWall:              simWall,
		AnalysisWall:         anWall,
	}
	// Render compact grids only for small fabrics (full grids are huge).
	if nodes <= 64 {
		out.GridBefore = viz.ClusterGrid(res.Topo, cross)
		out.GridAfter = viz.JobClusterGrid(res.Topo, clusters)
	}
	return out, nil
}

// Report renders the experiment outcome as text.
func (r *Fig3Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E1 (Fig. 3) — LLM training job recognition\n")
	fmt.Fprintf(&sb, "  cluster: %d GPUs, %d true jobs, %d flows in 1-min window\n",
		r.GPUs, r.TrueJobs, r.WindowFlows)
	fmt.Fprintf(&sb, "  phase 1 cross-machine clusters: %d (NIC rails, pre-merge)\n", r.CrossMachineClusters)
	fmt.Fprintf(&sb, "  phase 2 job-level clusters:     %d\n", r.JobClusters)
	fmt.Fprintf(&sb, "  exact matches: %d/%d  perfect=%v\n",
		r.Recognition.ExactMatches, r.Recognition.TrueJobs, r.Recognition.Perfect())
	fmt.Fprintf(&sb, "  wall: sim %v, analysis %v\n", r.SimWall.Round(time.Millisecond), r.AnalysisWall.Round(time.Millisecond))
	return sb.String()
}
