package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/stats"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/viz"
)

// Fig5Result is the switch-level diagnosis experiment outcome.
type Fig5Result struct {
	Switches                 int
	Injected                 []flow.SwitchID
	Flagged                  []flow.SwitchID
	InjectedFlagged          int
	FalselyFlagged           int
	NormalP10, NormalP90     float64
	DegradedP10, DegradedP90 float64
	Table                    string
	Alerts                   []diagnose.Alert
	SimWall                  time.Duration
}

// Fig5 reproduces the paper's Fig. 5/§V-D switch-level diagnosis: a
// multi-tenant platform runs for an hour while a subset of spine switches
// degrades mid-run; per-switch average DP flow bandwidth is aggregated per
// bucket and k-sigma detection flags the degraded switches. In the paper,
// healthy switches average 100–180 Gb/s and the degraded subset drops to
// 30–60 Gb/s.
func Fig5(ctx context.Context, opts Options) (*Fig5Result, error) {
	opts = opts.withDefaults()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	nodes := scaleInt(64, opts.Scale, 24)
	horizon := scaleDur(time.Hour, opts.Scale, 10*time.Minute)
	// 3 nodes per leaf: every pipeline stage (DP group) spans leaves, so
	// DP collectives traverse the spine layer under test.
	topoSpec := topology.Spec{Nodes: nodes, NodesPerLeaf: 3, Spines: 8}
	topo, err := topology.New(topoSpec)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}

	var plans []platform.JobPlan
	for used := 0; used+16 <= nodes; used += 16 {
		plans = append(plans, platform.JobPlan{Nodes: 16, TargetStep: 15 * time.Second})
	}
	jobs, err := platform.PlanJobs(topoSpec, plans, opts.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}

	injected := []flow.SwitchID{topo.SpineSwitch(1), topo.SpineSwitch(4)}
	faultFrom := horizon / 3
	faultUntil := 2 * horizon / 3
	var sched faults.Schedule
	for _, sw := range injected {
		sched.Faults = append(sched.Faults, faults.Fault{
			Kind: faults.KindSwitchDegrade, Switch: sw,
			At: faultFrom, Until: faultUntil, Factor: 0.07,
		})
	}

	simStart := time.Now()
	res, err := platform.Run(platform.Scenario{
		Name:    "fig5",
		Topo:    topoSpec,
		Jobs:    jobs,
		Faults:  sched,
		Horizon: horizon,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fig5: %w", err)
	}
	simWall := time.Since(simStart)

	// The shipped analyzer builds the platform-wide series from per-job
	// partials merged in job order — bit-identical for any worker count.
	bucket := horizon / 12
	report, err := llmprism.New(llmprism.WithWorkers(opts.Workers), llmprism.WithSwitchBucket(bucket)).
		AnalyzeFrameContext(ctx, res.Frame, res.Topo)
	if err != nil {
		return nil, err
	}
	series, alerts := report.SwitchSeries, report.SwitchAlerts

	out := &Fig5Result{
		Switches: len(series),
		Injected: injected,
		Alerts:   alerts,
		SimWall:  simWall,
		Table:    viz.BandwidthSeries(series, func(sw flow.SwitchID) string { return res.Topo.SwitchName(sw) }),
	}

	flagged := make(map[flow.SwitchID]bool)
	for _, a := range alerts {
		if a.Kind == diagnose.AlertSwitchBandwidth {
			flagged[a.Switch] = true
		}
	}
	for sw := range flagged {
		out.Flagged = append(out.Flagged, sw)
	}
	sort.Slice(out.Flagged, func(i, j int) bool { return out.Flagged[i] < out.Flagged[j] })
	injectedSet := make(map[flow.SwitchID]bool)
	for _, sw := range injected {
		injectedSet[sw] = true
	}
	for sw := range flagged {
		if injectedSet[sw] {
			out.InjectedFlagged++
		} else {
			out.FalselyFlagged++
		}
	}

	// Bandwidth distributions inside the fault window: injected spines vs
	// healthy spines (matching the figure's healthy vs degraded bands).
	epoch := res.Truth.Epoch
	var normal, degraded []float64
	for sw, pts := range series {
		if !res.Topo.IsSpine(sw) {
			continue
		}
		for _, p := range pts {
			off := p.Bucket.Sub(epoch)
			if off < faultFrom || off >= faultUntil {
				continue
			}
			if injectedSet[sw] {
				degraded = append(degraded, p.MeanGbps)
			} else {
				normal = append(normal, p.MeanGbps)
			}
		}
	}
	out.NormalP10, out.NormalP90 = stats.Percentile(normal, 10), stats.Percentile(normal, 90)
	out.DegradedP10, out.DegradedP90 = stats.Percentile(degraded, 10), stats.Percentile(degraded, 90)
	return out, nil
}

// Report renders the experiment outcome.
func (r *Fig5Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E4 (Fig. 5) — switch-level diagnosis under spine degradation\n")
	fmt.Fprintf(&sb, "  switches with DP traffic: %d, injected degradations: %v\n", r.Switches, r.Injected)
	fmt.Fprintf(&sb, "  flagged: %v (injected flagged %d/%d, false flags %d)\n",
		r.Flagged, r.InjectedFlagged, len(r.Injected), r.FalselyFlagged)
	fmt.Fprintf(&sb, "  spine DP bandwidth during fault: healthy P10-P90 %.0f-%.0f Gb/s, degraded %.0f-%.0f Gb/s\n",
		r.NormalP10, r.NormalP90, r.DegradedP10, r.DegradedP90)
	fmt.Fprintf(&sb, "  (paper: healthy 100-180 Gb/s, degraded 30-60 Gb/s)\n")
	fmt.Fprintf(&sb, "  wall: sim %v\n", r.SimWall.Round(time.Millisecond))
	sb.WriteString("\n  per-switch mean DP bandwidth (Gb/s) over time:\n")
	for _, line := range strings.Split(strings.TrimRight(r.Table, "\n"), "\n") {
		sb.WriteString("  " + line + "\n")
	}
	return sb.String()
}
