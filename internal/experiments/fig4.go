package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/trainsim"
	"github.com/llmprism/llmprism/internal/truth"
	"github.com/llmprism/llmprism/viz"
)

// Fig4Result is the timeline-reconstruction experiment outcome.
type Fig4Result struct {
	GPUs         int
	Score        truth.TimelineScore
	MeanStep     time.Duration
	RanksWithTL  int
	Render       string
	SimWall      time.Duration
	AnalysisWall time.Duration
}

// Fig4 reproduces §V-C and Fig. 4: reconstruct per-GPU training timelines
// of a 1,024-GPU ZeRO job and score the step boundaries against the
// simulator's ground truth (standing in for the paper's PyTorch Profiler
// reference). The paper reports reconstruction error within 0.3%.
func Fig4(ctx context.Context, opts Options) (*Fig4Result, error) {
	return fig4WithMode(ctx, opts, netsim.Config{})
}

func fig4WithMode(ctx context.Context, opts Options, netCfg netsim.Config) (*Fig4Result, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := scaleInt(128, opts.Scale, 16)
	horizon := scaleDur(6*time.Minute, opts.Scale, 2*time.Minute)
	topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 8, Spines: 8}
	jobs, err := platform.PlanJobs(topoSpec, []platform.JobPlan{{
		Nodes:      nodes,
		TargetStep: 10 * time.Second,
		Style:      trainsim.StyleZeRO,
		StyleSet:   true,
	}}, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	simStart := time.Now()
	res, err := platform.Run(platform.Scenario{
		Name:    "fig4",
		Topo:    topoSpec,
		Jobs:    jobs,
		Net:     netCfg,
		Horizon: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig4: %w", err)
	}
	simWall := time.Since(simStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	anStart := time.Now()
	views := jobViews(res.Frame, res.Topo)
	if len(views) == 0 {
		return nil, fmt.Errorf("experiments: fig4: job not recognized")
	}
	cls := parallel.IdentifyView(views[0], parallel.Config{})
	tls := timeline.ReconstructView(views[0], cls.Types, timeline.Config{})
	anWall := time.Since(anStart)

	tj := res.Truth.Jobs[0]
	score := truth.ScoreTimeline(timeline.AllStepEnds(tls, res.Truth.Epoch), tj)

	// Render the first 8 ranks over roughly two steps for the figure.
	ranks := make([]flow.Addr, 0, len(tls))
	for r := range tls {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	var meanStep time.Duration
	var withTL int
	for _, r := range ranks {
		if d := timeline.MeanStepDuration(tls[r]); d > 0 {
			meanStep += d
			withTL++
		}
	}
	if withTL > 0 {
		meanStep /= time.Duration(withTL)
	}
	var render string
	if len(ranks) > 0 && meanStep > 0 {
		show := ranks
		if len(show) > 8 {
			show = show[:8]
		}
		from := res.Truth.Epoch.Add(horizon / 2)
		render = viz.TimelineSwimlanes(views[0].Records(), cls.Types, tls, show, from, from.Add(2*meanStep+meanStep/2), 110)
	}

	return &Fig4Result{
		GPUs:         res.Topo.Endpoints(),
		Score:        score,
		MeanStep:     meanStep,
		RanksWithTL:  withTL,
		Render:       render,
		SimWall:      simWall,
		AnalysisWall: anWall,
	}, nil
}

// Report renders the experiment outcome.
func (r *Fig4Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E3 (§V-C, Fig. 4) — training timeline reconstruction\n")
	fmt.Fprintf(&sb, "  job: %d GPUs, mean step %v, %d ranks reconstructed\n",
		r.GPUs, r.MeanStep.Round(time.Millisecond), r.RanksWithTL)
	fmt.Fprintf(&sb, "  matched steps: %d\n", r.Score.MatchedSteps)
	fmt.Fprintf(&sb, "  reconstruction error: mean %s, max %s (paper: within 0.3%%)\n",
		fmtPct(r.Score.MeanRelError), fmtPct(r.Score.MaxRelError))
	fmt.Fprintf(&sb, "  wall: sim %v, analysis %v\n", r.SimWall.Round(time.Millisecond), r.AnalysisWall.Round(time.Millisecond))
	if r.Render != "" {
		sb.WriteString("\n  reconstructed timeline sample:\n")
		for _, line := range strings.Split(strings.TrimRight(r.Render, "\n"), "\n") {
			sb.WriteString("  " + line + "\n")
		}
	}
	return sb.String()
}
