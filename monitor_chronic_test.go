package llmprism_test

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/testbed"
)

// chronicTrace simulates the multi-tenant platform the chronic tests
// share: three 8-node tenants on a 24-node fabric over a 2-minute
// horizon. With degrade set, the NIC link of node 4's first GPU is
// degraded for the entire horizon, so its DP group is chronically slower
// than its peers. Operationally that trace is still fault-free — the
// slowness is the platform's steady state, not an event — yet the
// cross-group detector flags the group as an outlier in every window:
// the chronic false alert stream this PR suppresses.
func chronicTrace(t testing.TB, degrade bool) ([]llmprism.FlowRecord, *llmprism.Topology) {
	t.Helper()
	spec := llmprism.TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 8}
	jobs, err := testbed.PlanJobs(spec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 2 * time.Minute
	var schedule testbed.FaultSchedule
	if degrade {
		topo, err := llmprism.NewTopology(spec)
		if err != nil {
			t.Fatal(err)
		}
		slowNIC := topology.LinkID(int(topo.AddrOf(4, 0)))
		schedule.Faults = []testbed.Fault{{
			Kind: testbed.FaultLinkDegrade, Link: slowNIC,
			At: 0, Until: horizon, Factor: 0.3,
		}}
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "chronic-baseline", Topo: spec, Jobs: jobs,
		Horizon: horizon, Faults: schedule,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res.Records, res.Topo
}

func crossGroupAlerts(r *llmprism.Report) int {
	n := 0
	for _, j := range r.Jobs {
		for _, a := range j.Alerts {
			if a.Kind == llmprism.AlertCrossGroup {
				n++
			}
		}
	}
	return n
}

// TestMonitorChronicSuppression is the chronic-false-alert regression
// test. The structurally slow DP group fires a cross-group alert on its
// anchor rank in every window — the pre-fix behavior, held as the test's
// precondition — and without suppression its host tops the suspect ranking
// in every steady-state window, drowning out anything else. With
// WithChronicSuppression the incident turns chronic after the baseline
// period: its alerts leave the surface, its evidence leaves localization
// (the host disappears from the suspect list entirely), and the incident
// itself stays visible (Chronic, StillFiring) instead of vanishing.
// Transient alerts elsewhere keep flowing — suppression must never eat
// fresh events.
func TestMonitorChronicSuppression(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	records, topo := chronicTrace(t, true)
	slow := topo.AddrOf(4, 0) // the chronically degraded rank (chronicTrace)
	const window = 20 * time.Second
	// Window 0 is a quiet warmup; the chronic alert fires from window 1 and
	// the incident reaches the chronic threshold (3 windows) at window 3.
	const firstAlert, warmup = 1, 3
	newMonitor := func(opts ...llmprism.MonitorOption) *llmprism.Monitor {
		m, err := llmprism.NewMonitor(session.Config{Topo: topo, Localize: true}.Analyzer(), topo, window, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	slowCrossGroup := func(r *llmprism.Report) bool {
		for _, j := range r.Jobs {
			for _, a := range j.Alerts {
				if a.Kind == llmprism.AlertCrossGroup && a.GroupAnchor == slow {
					return true
				}
			}
		}
		return false
	}

	// Precondition: without suppression the chronic alert fires in every
	// window and its host tops every steady-state suspect ranking — the
	// bug this PR exists to fix.
	raw := llmprism.StreamAll(t, newMonitor(), records, 2000)
	if len(raw) < 5 {
		t.Fatalf("windows = %d, want >= 5", len(raw))
	}
	for i, r := range raw {
		if i < firstAlert {
			continue
		}
		if !slowCrossGroup(r) {
			t.Fatalf("window %d: fixture lost its chronic cross-group alert on %v", i, slow)
		}
		if i >= warmup {
			if len(r.Suspects) == 0 || r.Suspects[0].Component.Kind != localize.ComponentHost || r.Suspects[0].Component.Host != slow {
				t.Fatalf("window %d: chronic host should top the raw suspect ranking", i)
			}
		}
	}

	// With suppression: the baseline learning period may still alert, but
	// once the incident turns chronic its alerts and localization evidence
	// are gone while the incident stays visible.
	suppressed := llmprism.StreamAll(t, newMonitor(llmprism.WithChronicSuppression()), records, 2000)
	if len(suppressed) != len(raw) {
		t.Fatalf("suppressed run emitted %d windows, raw %d", len(suppressed), len(raw))
	}
	for i, r := range suppressed {
		if i < warmup {
			continue
		}
		if slowCrossGroup(r) {
			t.Errorf("window %d: chronic cross-group alert on %v still on the surface", i, slow)
		}
		chronicFiring := false
		for _, inc := range r.Incidents {
			if inc.Chronic && inc.StillFiring && inc.Key.Kind == llmprism.AlertCrossGroup && inc.Key.Rank == slow {
				chronicFiring = true
			}
		}
		if !chronicFiring {
			t.Errorf("window %d: suppressed incident must stay visible as chronic", i)
		}
		for _, s := range r.Suspects {
			if s.Component.Kind == localize.ComponentHost && s.Component.Host == slow {
				t.Errorf("window %d: suppressed evidence still localizes to %v", i, slow)
			}
		}
	}
}

// TestMonitorGroupRailStratification runs the fault-free chronic trace
// through the analyzer llmprismd and the llmprism CLI build,
// session.Config.Analyzer. That analyzer takes its group rails from the
// topology, so the trailing rail's structurally slow groups are judged
// only against each other and no window raises a cross-group alert, with
// no suppression needed. Pooled with the other rails at k = 3, they raise
// false alerts in every window after the first.
func TestMonitorGroupRailStratification(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	records, topo := chronicTrace(t, false)
	m, err := llmprism.NewMonitor(session.Config{Topo: topo}.Analyzer(), topo, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	reports := llmprism.StreamAll(t, m, records, 2000)
	if len(reports) < 5 {
		t.Fatalf("windows = %d, want >= 5", len(reports))
	}
	for i, r := range reports {
		if n := crossGroupAlerts(r); n != 0 {
			t.Errorf("window %d: %d cross-group alerts on a fault-free trace, want 0", i, n)
		}
	}
}
