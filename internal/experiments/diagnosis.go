package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/topology"
)

// DiagnosisResult is the cross-step / cross-group diagnosis experiment
// outcome.
type DiagnosisResult struct {
	// Straggler detection (cross-step).
	StragglerAddr        flow.Addr
	CrossStepAlerts      int
	CrossStepInWindow    int
	StragglerJobDetected bool

	// Slow-group detection (cross-group) via a degraded member NIC.
	DegradedMember    flow.Addr
	CrossGroupAlerts  int
	SlowGroupDetected bool

	SimWall time.Duration
}

// Diagnosis reproduces §V-D's cross-step and cross-group detection: a
// thermally-throttled straggler rank must surface as step-duration
// anomalies, and a DP group communicating over a degraded NIC must surface
// as a collective-duration outlier against its peer groups.
func Diagnosis(ctx context.Context, opts Options) (*DiagnosisResult, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := scaleInt(32, opts.Scale, 24)
	topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 4, Spines: 4}
	topo, err := topology.New(topoSpec)
	if err != nil {
		return nil, fmt.Errorf("experiments: diagnosis: %w", err)
	}

	// Job A (straggler victim) on the first half, job B (slow group
	// victim) on the second half.
	half := nodes / 2
	jobs, err := platform.PlanJobs(topoSpec, []platform.JobPlan{
		{Nodes: half, TargetStep: 2 * time.Second},
		{Nodes: nodes - half, TargetStep: 2 * time.Second},
	}, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: diagnosis: %w", err)
	}

	straggler := topo.AddrOf(2, 5)                      // a GPU of job A
	degraded := topo.AddrOf(topology.NodeID(half+1), 0) // a NIC of job B
	horizon := 60 * time.Second
	sched := faults.Schedule{Faults: []faults.Fault{
		{
			Kind: faults.KindRankSlowdown, Addr: straggler,
			At: 20 * time.Second, Until: 40 * time.Second, Factor: 4,
		},
		{
			Kind: faults.KindLinkDegrade, Link: netsim.NICUp(degraded),
			At: 20 * time.Second, Until: 40 * time.Second, Factor: 0.10,
		},
	}}

	simStart := time.Now()
	res, err := platform.Run(platform.Scenario{
		Name: "diagnosis", Topo: topoSpec, Jobs: jobs,
		Faults: sched, Horizon: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: diagnosis: %w", err)
	}
	out := &DiagnosisResult{
		StragglerAddr:  straggler,
		DegradedMember: degraded,
		SimWall:        time.Since(simStart),
	}

	report, err := llmprism.New(llmprism.WithWorkers(opts.Workers)).AnalyzeFrameContext(ctx, res.Frame, res.Topo)
	if err != nil {
		return nil, err
	}
	// Cross-step alerts count for the straggler's job, cross-group alerts
	// for every other job.
	for _, job := range report.Jobs {
		stragglerJob := slices.Contains(job.Cluster.Endpoints, straggler)
		for _, a := range job.Alerts {
			switch {
			case stragglerJob && a.Kind == diagnose.AlertCrossStep:
				out.CrossStepAlerts++
				if off := a.Time.Sub(res.Truth.Epoch); off >= 18*time.Second && off <= 42*time.Second {
					out.CrossStepInWindow++
				}
			case !stragglerJob && a.Kind == diagnose.AlertCrossGroup:
				out.CrossGroupAlerts++
				if a.Group < len(job.DPGroups) && slices.Contains(job.DPGroups[a.Group], degraded) {
					out.SlowGroupDetected = true
				}
			}
		}
	}
	out.StragglerJobDetected = out.CrossStepInWindow > 0
	return out, nil
}

// Report renders the experiment outcome.
func (r *DiagnosisResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E5 (§V-D) — cross-step and cross-group diagnosis\n")
	fmt.Fprintf(&sb, "  straggler %v (4x compute, 20s-40s): %d cross-step alerts, %d inside fault window, detected=%v\n",
		r.StragglerAddr, r.CrossStepAlerts, r.CrossStepInWindow, r.StragglerJobDetected)
	fmt.Fprintf(&sb, "  degraded NIC %v (10%% capacity, 20s-40s): %d cross-group alerts, slow group named=%v\n",
		r.DegradedMember, r.CrossGroupAlerts, r.SlowGroupDetected)
	fmt.Fprintf(&sb, "  wall: sim %v\n", r.SimWall.Round(time.Millisecond))
	return sb.String()
}
