package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/pool"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
)

// Localization geometry: every scenario runs the same windowed analysis so
// the matrix cells are comparable.
const (
	locHorizon = 2 * time.Minute
	locWindow  = 20 * time.Second
	locBucket  = 5 * time.Second
	// Faults run window-aligned so every affected window is fully
	// degraded: the detectors the matrix leans on (switch-bandwidth and
	// cross-group) are within-window peer comparisons and need no healthy
	// history.
	locFaultFrom  = 40 * time.Second
	locFaultUntil = 100 * time.Second
	// locStep is the tenants' target step duration: ~10 steps per window,
	// enough for the per-rank baselines without the scheduling noise very
	// short steps exhibit.
	locStep = 2 * time.Second
	locTopK = 3
)

// LocalizationRow is one scenario × load cell of the localization matrix.
type LocalizationRow struct {
	Scenario string
	Load     string
	// SingleFault marks scenarios whose schedule names one root-cause
	// component (a flapping fault is one cause injected twice) — the rows
	// the top-1 acceptance bar applies to.
	SingleFault bool
	// Windows counts the monitor windows that held recognized jobs; Alerted
	// the ones whose detectors fired and produced suspects.
	Windows, Alerted int
	// Score is the localization accuracy against the injected schedule.
	Score truth.LocalizationScore
	// Faults names the injected components, for the table.
	Faults []string
}

// LocalizationResult is the L1 experiment outcome: the full scenario
// matrix plus wall-clock accounting.
type LocalizationResult struct {
	K       int
	Rows    []LocalizationRow
	SimWall time.Duration
}

// locScenario declares one matrix row family: how to lay out tenants and
// which faults to inject, given the fabric built for a load level.
type locScenario struct {
	name   string
	single bool
	// plans returns the tenant jobs filling a fabric of the given size.
	plans func(nodes int) []platform.JobPlan
	// faults returns the injected schedule on the built fabric.
	faults func(topo *topology.Topology) faults.Schedule
}

// locLoad is one load level of the matrix: a fabric size and tenant
// density multiplier.
type locLoad struct {
	name  string
	nodes int
}

func locScenarios() []locScenario {
	spineDegrade := func(spine int) func(*topology.Topology) faults.Schedule {
		return func(topo *topology.Topology) faults.Schedule {
			return faults.Schedule{Faults: []faults.Fault{{
				Kind: faults.KindSwitchDegrade, Switch: topo.SpineSwitch(spine),
				At: locFaultFrom, Until: locFaultUntil, Factor: 0.07,
			}}}
		}
	}
	// Three 8-node tenants per 24 nodes (PP=2, DP=4, 16 DP groups each).
	tenants8 := func(nodes int) []platform.JobPlan {
		var plans []platform.JobPlan
		for used := 0; used+8 <= nodes; used += 8 {
			plans = append(plans, platform.JobPlan{Nodes: 8, TargetStep: locStep})
		}
		return plans
	}
	// One leaf-0 uplink at 3% capacity: the ECMP share of the first
	// tenant's DP rings that hashes onto it crawls.
	leaf0Uplink := func(topo *topology.Topology) topology.LinkID {
		return topology.LinkID(2*topo.Endpoints() + 0*topo.Spines() + 3)
	}
	return []locScenario{
		{
			name: "switch-degrade", single: true,
			plans:  tenants8,
			faults: spineDegrade(2),
		},
		{
			name: "fabric-link-degrade", single: true,
			plans: tenants8,
			faults: func(topo *topology.Topology) faults.Schedule {
				return faults.Schedule{Faults: []faults.Fault{{
					Kind: faults.KindLinkDegrade, Link: leaf0Uplink(topo),
					At: locFaultFrom, Until: locFaultUntil, Factor: 0.03,
				}}}
			},
		},
		{
			// The same fabric link degraded in two bursts with a healthy
			// window between them: one root cause flapping, not two
			// incidents. The cross-window fused ranking (and the suspect
			// tracker's one-window grace) must carry the component across
			// the quiet gap instead of restarting its run.
			name: "flapping-fault", single: true,
			plans: tenants8,
			faults: func(topo *topology.Topology) faults.Schedule {
				link := leaf0Uplink(topo)
				return faults.Schedule{Faults: []faults.Fault{
					{
						Kind: faults.KindLinkDegrade, Link: link,
						At: locFaultFrom, Until: locFaultFrom + locWindow, Factor: 0.03,
					},
					{
						Kind: faults.KindLinkDegrade, Link: link,
						At: locFaultUntil - locWindow, Until: locFaultUntil, Factor: 0.03,
					},
				}}
			},
		},
		{
			// A straggler rank, injected as its NIC's access link crawling
			// (failing optics): the rank's own flows carry the slowness.
			// A pure compute slowdown is deliberately not used here: under
			// barrier-synchronized training every rank of the job stalls
			// identically, so switch-level flow records hold no signal
			// below job granularity for it (verified empirically — the
			// per-rank flow pacing of the straggler's server differs from
			// its peers' by under 0.2%); compute stragglers stay a
			// detection scenario (E5), not a localization one.
			name: "straggler", single: true,
			plans: tenants8,
			faults: func(topo *topology.Topology) faults.Schedule {
				// GPU 3 of the second tenant's third server: its transmit
				// path collapses to 2 Gb/s.
				return faults.Schedule{Faults: []faults.Fault{{
					Kind: faults.KindLinkDegrade, Link: topology.LinkID(int(topo.AddrOf(10, 3))),
					At: locFaultFrom, Until: locFaultUntil, Factor: 0.01,
				}}}
			},
		},
		{
			name: "multi-fault", single: false,
			plans: tenants8,
			faults: func(topo *topology.Topology) faults.Schedule {
				// A straggler NIC in the first tenant and a degraded
				// spine, concurrently: both must surface in the top-K.
				return faults.Schedule{Faults: []faults.Fault{
					{
						Kind: faults.KindLinkDegrade, Link: topology.LinkID(int(topo.AddrOf(10, 3))),
						At: locFaultFrom, Until: locFaultUntil, Factor: 0.01,
					},
					{
						Kind: faults.KindSwitchDegrade, Switch: topo.SpineSwitch(5),
						At: locFaultFrom, Until: locFaultUntil, Factor: 0.07,
					},
				}}
			},
		},
		{
			// Two faults whose activity windows overlap but do not
			// coincide: the spine degrade is already an ongoing incident
			// when the straggler NIC joins, and it resolves first. The
			// fused ranking must keep both components ranked through the
			// overlap instead of letting the newer fault evict the older.
			name: "overlapping-fault-window", single: false,
			plans: tenants8,
			faults: func(topo *topology.Topology) faults.Schedule {
				return faults.Schedule{Faults: []faults.Fault{
					{
						Kind: faults.KindSwitchDegrade, Switch: topo.SpineSwitch(5),
						At: locFaultFrom, Until: locFaultUntil - locWindow, Factor: 0.07,
					},
					{
						Kind: faults.KindLinkDegrade, Link: topology.LinkID(int(topo.AddrOf(10, 3))),
						At: locFaultFrom + locWindow, Until: locFaultUntil, Factor: 0.01,
					},
				}}
			},
		},
		{
			name: "interference", single: true,
			// Twice the tenant count at half the size: more jobs share
			// every spine, so misattribution across tenants gets cheaper.
			plans: func(nodes int) []platform.JobPlan {
				var plans []platform.JobPlan
				for used := 0; used+4 <= nodes; used += 4 {
					plans = append(plans, platform.JobPlan{Nodes: 4, TargetStep: locStep})
				}
				return plans
			},
			faults: spineDegrade(2),
		},
	}
}

// Localization is this reproduction's L1 experiment: a scenario matrix
// (switch degrade, fabric-link degrade, flapping fabric link, straggler
// rank, concurrent multi-fault, overlapping fault windows, multi-job
// interference — each × load levels) scoring topology-aware root-cause
// localization against the injected fault schedule. Each cell simulates a
// multi-tenant platform and runs the trace through the deployed monitor
// loop (Monitor.Stream) — tier-stratified switch diagnosis, rail-stratified
// cross-group diagnosis, chronic-anomaly suppression, spectrum
// localization over the surviving alerts, and cross-window score fusion —
// scoring the fused ranking with truth.ScoreLocalization. Scale < 1 runs
// the reduced grid (every scenario at the first load level, plus the
// historically weakest cell, fabric-link-degrade at 2x) — the -short
// configuration CI uses.
func Localization(ctx context.Context, opts Options) (*LocalizationResult, error) {
	opts = opts.withDefaults()
	loads := []locLoad{{"1x", 24}, {"2x", 48}}

	type cell struct {
		sc   locScenario
		load locLoad
	}
	var cells []cell
	for _, sc := range locScenarios() {
		for _, load := range loads {
			if opts.Scale < 1 && load.name != "1x" && sc.name != "fabric-link-degrade" {
				continue // reduced grid
			}
			cells = append(cells, cell{sc, load})
		}
	}

	start := time.Now()
	rows, err := pool.Map(ctx, opts.Workers, cells,
		func(ctx context.Context, i int, c cell) (LocalizationRow, error) {
			return localizationCell(ctx, c.sc, c.load, i, opts)
		})
	if err != nil {
		return nil, err
	}
	return &LocalizationResult{K: locTopK, Rows: rows, SimWall: time.Since(start)}, nil
}

// localizationCell simulates and scores one scenario × load cell. All
// randomness derives from opts.Seed and the cell index, so the matrix is
// bit-identical for any worker count.
func localizationCell(ctx context.Context, sc locScenario, load locLoad, idx int, opts Options) (LocalizationRow, error) {
	row := LocalizationRow{Scenario: sc.name, Load: load.name, SingleFault: sc.single}
	if err := ctx.Err(); err != nil {
		return row, err
	}
	// 3 nodes per leaf keeps every DP group crossing the spine layer under
	// test; 8 spines keep the stratified spine tier above the k-sigma
	// minimum population of 6.
	spec := topology.Spec{Nodes: load.nodes, NodesPerLeaf: 3, Spines: 8}
	topo, err := topology.New(spec)
	if err != nil {
		return row, fmt.Errorf("experiments: localization %s/%s: %w", sc.name, load.name, err)
	}
	jobs, err := platform.PlanJobs(spec, sc.plans(load.nodes), opts.Seed+int64(idx)*104729)
	if err != nil {
		return row, fmt.Errorf("experiments: localization %s/%s: %w", sc.name, load.name, err)
	}
	sched := sc.faults(topo)
	for _, f := range sched.Faults {
		if comp, ok := truth.FaultComponent(topo, f); ok {
			row.Faults = append(row.Faults, comp.String())
		}
	}

	res, err := platform.Run(platform.Scenario{
		Name: "localization-" + sc.name, Topo: spec, Jobs: jobs,
		Faults: sched, Horizon: locHorizon,
	})
	if err != nil {
		return row, fmt.Errorf("experiments: localization %s/%s: %w", sc.name, load.name, err)
	}

	// The deployed loop, not a mirror of it: the monitor carries chronic
	// suppression (chronic anomalies drop out of the alert surface and the
	// localization evidence) and fuses per-window suspect scores into the
	// cross-window ranking the cell is scored on. The grid is anchored at
	// the simulation epoch so windows line up with the fault schedule.
	m, err := llmprism.NewMonitor(locSession(res.Topo).Analyzer(), res.Topo, locWindow,
		llmprism.WithAnchor(res.Truth.Epoch),
		llmprism.WithChronicSuppression())
	if err != nil {
		return row, fmt.Errorf("experiments: localization %s/%s: %w", sc.name, load.name, err)
	}
	reports, err := monitorTrace(ctx, m, res)
	if err != nil {
		return row, fmt.Errorf("experiments: localization %s/%s: %w", sc.name, load.name, err)
	}
	windows := make([]truth.LocalizedWindow, len(reports))
	for i, r := range reports {
		if len(r.Jobs) > 0 {
			row.Windows++
		}
		if len(r.Suspects) > 0 {
			row.Alerted++
		}
		windows[i] = localizedWindow(r)
	}
	row.Score = truth.ScoreLocalization(res.Topo, sched, res.Truth.Epoch, windows, locTopK)
	return row, nil
}

// locSession is the session config both accuracy matrices (L1 and R1)
// build their analyzer from: the analyzer llmprismd and the llmprism CLI
// run — k = 3, switch tiers and group rails from the topology — with
// localization on, at the matrices' switch bucket.
func locSession(topo *topology.Topology) session.Config {
	return session.Config{Topo: topo, Bucket: locBucket, Localize: true}
}

// monitorTrace drives a simulated trace through m's Stream session the way
// a collector would — one Push per locWindow of the horizon, Close for the
// tail — and returns every report in window order.
func monitorTrace(ctx context.Context, m *llmprism.Monitor, res *platform.Result) ([]*llmprism.Report, error) {
	s, err := m.Stream(ctx)
	if err != nil {
		return nil, err
	}
	var reports []*llmprism.Report
	for off := time.Duration(0); off+locWindow <= locHorizon; off += locWindow {
		got, err := s.Push(res.Window(off, locWindow))
		if err != nil {
			return nil, err
		}
		reports = append(reports, got...)
	}
	tail, err := s.Close()
	if err != nil {
		return nil, err
	}
	return append(reports, tail...), nil
}

// localizedWindow is the scoring view of one monitor report.
func localizedWindow(r *llmprism.Report) truth.LocalizedWindow {
	return truth.LocalizedWindow{
		Start:    r.Window.Start,
		End:      r.Window.End,
		Alerts:   r.Alerts(),
		Suspects: r.Suspects,
		Fused:    r.FusedSuspects,
	}
}

// Report renders the matrix as the localization accuracy table.
func (r *LocalizationResult) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "L1 — topology-aware root-cause localization vs injected faults (top-%d)\n", r.K)
	fmt.Fprintf(&sb, "  %-15s %-4s %4s %5s %6s %6s %6s %6s  %s\n",
		"scenario", "load", "win", "alert", "top1", "top-k", "prec", "recall", "injected")
	for _, row := range r.Rows {
		s := row.Score
		fmt.Fprintf(&sb, "  %-15s %-4s %4d %5d %5.0f%% %5.0f%% %5.0f%% %5.0f%%  %s\n",
			row.Scenario, row.Load, row.Windows, s.Windows,
			100*s.Top1Rate(), 100*s.TopKRate(), 100*s.Precision(), 100*s.Recall(),
			strings.Join(row.Faults, ", "))
	}
	fmt.Fprintf(&sb, "  (alert = windows scored: fault active and detectors fired; single-fault bar: top1 >= 80%%)\n")
	fmt.Fprintf(&sb, "  wall: sim+analysis %v\n", r.SimWall.Round(time.Millisecond))
	return sb.String()
}
