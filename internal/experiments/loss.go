package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/erspan"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/pool"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
)

// Collector-loss geometry: the sweep reuses the localization matrix's
// window/fault layout so its cells are comparable to L1's, and places the
// leaf mirror blackout after the coverage baseline has formed (the guard's
// 3 healthy windows).
const (
	lossBlackoutFrom  = 60 * time.Second
	lossBlackoutUntil = 120 * time.Second
	// lossBlackoutLeaves is how many of the fabric's 8 leaves lose their
	// mirror session: 6 leaves cover two full tenants plus part of the
	// third, collapsing the affected windows' flow volume well below the
	// guard's degraded threshold.
	lossBlackoutLeaves = 6
)

// LossRow is one scenario × loss-level cell of the collector-loss sweep.
type LossRow struct {
	// Scenario names the cell's fault layout: "no-fault", "spine-degrade"
	// or "leaf-blackout".
	Scenario string
	// Loss is the i.i.d. record-loss probability (duplication runs at the
	// same rate, as retransmitting exporters do under congestion).
	Loss float64
	// SingleFault marks cells with one injected root cause — the rows the
	// top-1 acceptance bar applies to.
	SingleFault bool
	// Windows counts the monitor's emitted windows; Degraded the ones the
	// coverage guard flagged.
	Windows, Degraded int
	// DegradedAlerts counts alerts surfaced on degraded windows — the
	// guard's contract makes this zero.
	DegradedAlerts int
	// AlertKinds is the sorted distinct set of alert kinds that fired
	// across the cell's windows.
	AlertKinds []diagnose.AlertKind
	// Observed and Lost count collector activity (Lost includes Blacked).
	Observed, Lost, Blacked uint64
	// Score is the fused localization accuracy against the injected
	// schedule (zero-valued on no-fault and blackout cells).
	Score truth.LocalizationScore
}

// LossResult is the collector-loss sweep outcome.
type LossResult struct {
	K       int
	Rows    []LossRow
	SimWall time.Duration
}

// lossCellSpec declares one cell of the sweep matrix.
type lossCellSpec struct {
	scenario string
	loss     float64
	single   bool
	faults   func(*topology.Topology) faults.Schedule
	blackout bool
}

// CollectorLoss is the robustness experiment: the same multi-tenant
// platform and spine-degrade fault as the localization matrix, swept across
// collector imperfection levels — i.i.d. record loss with matching
// duplication, and a multi-leaf mirror blackout — analyzed through the
// deployed monitor path (chronic suppression, coverage guard, fused
// localization). It scores what degrades and what must not: detection and
// localization hold at small loss, a no-fault platform gains no new alert
// kinds from loss alone, and a mirror blackout surfaces as degraded-window
// coverage instead of false alerts. Scale < 1 drops the middle loss level
// (the -short grid).
func CollectorLoss(ctx context.Context, opts Options) (*LossResult, error) {
	opts = opts.withDefaults()
	levels := []float64{0, 0.02, 0.05}
	if opts.Scale < 1 {
		levels = []float64{0, 0.05}
	}
	var cells []lossCellSpec
	for _, scenario := range []string{"no-fault", "spine-degrade"} {
		for _, p := range levels {
			c := lossCellSpec{scenario: scenario, loss: p}
			if scenario == "spine-degrade" {
				c.single = true
				c.faults = lossSpineDegrade
			}
			cells = append(cells, c)
		}
	}
	cells = append(cells, lossCellSpec{scenario: "leaf-blackout", blackout: true})

	start := time.Now()
	rows, err := pool.Map(ctx, opts.Workers, cells,
		func(ctx context.Context, i int, c lossCellSpec) (LossRow, error) {
			return lossCell(ctx, c, i, opts)
		})
	if err != nil {
		return nil, err
	}
	return &LossResult{K: locTopK, Rows: rows, SimWall: time.Since(start)}, nil
}

// lossSpineDegrade is the sweep's single fault: spine 2 degraded to 7% of
// its bandwidth across the localization matrix's fault window.
func lossSpineDegrade(topo *topology.Topology) faults.Schedule {
	return faults.Schedule{Faults: []faults.Fault{{
		Kind: faults.KindSwitchDegrade, Switch: topo.SpineSwitch(2),
		At: locFaultFrom, Until: locFaultUntil, Factor: 0.07,
	}}}
}

// lossCell simulates and scores one cell. All randomness derives from
// opts.Seed and the cell index, so the sweep is bit-identical for any
// worker count.
func lossCell(ctx context.Context, c lossCellSpec, idx int, opts Options) (LossRow, error) {
	row := LossRow{Scenario: c.scenario, Loss: c.loss, SingleFault: c.single}
	if err := ctx.Err(); err != nil {
		return row, err
	}
	spec := topology.Spec{Nodes: 24, NodesPerLeaf: 3, Spines: 8}
	var plans []platform.JobPlan
	for used := 0; used+8 <= spec.Nodes; used += 8 {
		plans = append(plans, platform.JobPlan{Nodes: 8, TargetStep: locStep})
	}
	jobs, err := platform.PlanJobs(spec, plans, opts.Seed+int64(idx)*104729)
	if err != nil {
		return row, fmt.Errorf("experiments: loss %s/%g: %w", c.scenario, c.loss, err)
	}
	collector := erspan.Config{
		LossProb:      c.loss,
		DuplicateProb: c.loss,
		Seed:          opts.Seed + int64(idx)*7919,
	}
	if c.blackout {
		topo, err := topology.New(spec)
		if err != nil {
			return row, fmt.Errorf("experiments: loss %s: %w", c.scenario, err)
		}
		for l := 0; l < lossBlackoutLeaves; l++ {
			collector.Blackouts = append(collector.Blackouts, erspan.Blackout{
				Switch: topo.LeafSwitch(l),
				From:   lossBlackoutFrom, Until: lossBlackoutUntil,
			})
		}
	}
	sched := faults.Schedule{}
	if c.faults != nil {
		topo, err := topology.New(spec)
		if err != nil {
			return row, fmt.Errorf("experiments: loss %s: %w", c.scenario, err)
		}
		sched = c.faults(topo)
	}
	res, err := platform.Run(platform.Scenario{
		Name: "loss-" + c.scenario, Topo: spec, Jobs: jobs,
		Faults: sched, Horizon: locHorizon, Collector: collector,
	})
	if err != nil {
		return row, fmt.Errorf("experiments: loss %s/%g: %w", c.scenario, c.loss, err)
	}
	row.Observed, row.Lost, row.Blacked = res.Observed, res.Lost, res.Blacked

	// The same deployed loop as the localization matrix, plus the coverage
	// guard and loss-tolerant detectors. The grid anchors at the first
	// observed record, as a live collector's would.
	analyzer := llmprism.New(append(locSession(res.Topo).AnalyzerOptions(),
		llmprism.WithLossTolerantDiagnosis(3))...)
	m, err := llmprism.NewMonitor(analyzer, res.Topo, locWindow,
		llmprism.WithChronicSuppression(),
		llmprism.WithCoverageGuard())
	if err != nil {
		return row, fmt.Errorf("experiments: loss %s/%g: %w", c.scenario, c.loss, err)
	}
	reports, err := monitorTrace(ctx, m, res)
	if err != nil {
		return row, fmt.Errorf("experiments: loss %s/%g: %w", c.scenario, c.loss, err)
	}

	kinds := make(map[diagnose.AlertKind]bool)
	var windows []truth.LocalizedWindow
	for _, r := range reports {
		row.Windows++
		w := localizedWindow(r)
		for _, a := range w.Alerts {
			kinds[a.Kind] = true
		}
		if r.Coverage.Degraded {
			row.Degraded++
			row.DegradedAlerts += len(w.Alerts)
			continue // degraded windows carry no diagnosis to score
		}
		windows = append(windows, w)
	}
	for k := range kinds {
		row.AlertKinds = append(row.AlertKinds, k)
	}
	sort.Slice(row.AlertKinds, func(i, j int) bool { return row.AlertKinds[i] < row.AlertKinds[j] })
	if len(sched.Faults) > 0 {
		row.Score = truth.ScoreLocalization(res.Topo, sched, res.Truth.Epoch, windows, locTopK)
	}
	return row, nil
}

// Report renders the sweep as the collector-robustness table.
func (r *LossResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "R1 — diagnosis under collector loss (top-%d)\n", r.K)
	fmt.Fprintf(&sb, "  %-13s %5s %4s %4s %6s %6s %6s  %s\n",
		"scenario", "loss", "win", "degr", "lost", "top1", "top-k", "alert kinds")
	for _, row := range r.Rows {
		lostFrac := 0.0
		if row.Observed > 0 {
			lostFrac = float64(row.Lost) / float64(row.Observed)
		}
		top1, topk := "-", "-"
		if row.Score.FaultWindows > 0 {
			top1 = fmt.Sprintf("%.0f%%", 100*row.Score.Top1Rate())
			topk = fmt.Sprintf("%.0f%%", 100*row.Score.TopKRate())
		}
		var kinds []string
		for _, k := range row.AlertKinds {
			kinds = append(kinds, k.String())
		}
		fmt.Fprintf(&sb, "  %-13s %4.0f%% %4d %4d %5.1f%% %6s %6s  %s\n",
			row.Scenario, 100*row.Loss, row.Windows, row.Degraded,
			100*lostFrac, top1, topk, strings.Join(kinds, ", "))
	}
	fmt.Fprintf(&sb, "  (degr = coverage-degraded windows: alerts withheld, trackers frozen; bar: single-fault top1 >= 80%% per loss level)\n")
	fmt.Fprintf(&sb, "  wall: sim+analysis %v\n", r.SimWall.Round(time.Millisecond))
	return sb.String()
}
