package llmprism

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/localize"
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
func chronicTrace(t testing.TB, degrade bool) ([]FlowRecord, *Topology) {
	t.Helper()
	spec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 8}
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
		topo, err := NewTopology(spec)
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

func crossGroupAlerts(r *Report) int {
	n := 0
	for _, j := range r.Jobs {
		for _, a := range j.Alerts {
			if a.Kind == AlertCrossGroup {
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
	newMonitor := func(opts ...MonitorOption) *Monitor {
		m, err := NewMonitor(New(WithSigmaK(4), WithLocalization()), topo, window, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	slowCrossGroup := func(r *Report) bool {
		for _, j := range r.Jobs {
			for _, a := range j.Alerts {
				if a.Kind == AlertCrossGroup && a.GroupAnchor == slow {
					return true
				}
			}
		}
		return false
	}

	// Precondition: without suppression the chronic alert fires in every
	// window and its host tops every steady-state suspect ranking — the
	// bug this PR exists to fix.
	raw := streamAll(t, newMonitor(), records, 2000)
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
	suppressed := streamAll(t, newMonitor(WithChronicSuppression()), records, 2000)
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
			if inc.Chronic && inc.StillFiring && inc.Key.Kind == AlertCrossGroup && inc.Key.Rank == slow {
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

// TestMonitorGroupRailStratification drives the per-rail population split
// end to end: with the trailing TP rail as its own comparison class, the
// structurally slow groups never read as outliers and the fault-free trace
// raises no cross-group alert in any window — no suppression needed.
func TestMonitorGroupRailStratification(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	records, topo := chronicTrace(t, false)
	gpus := topo.Spec().GPUsPerNode
	analyzer := New(WithSigmaK(4), WithGroupRails(func(a Addr) int {
		if topo.GPUOf(a) == gpus-1 {
			return 1
		}
		return 0
	}))
	m, err := NewMonitor(analyzer, topo, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range streamAll(t, m, records, 2000) {
		if n := crossGroupAlerts(r); n != 0 {
			t.Errorf("window %d: %d cross-group alerts despite rail stratification, want 0", i, n)
		}
	}
}

// TestMonitorSuppressionStreamMatchesFeed extends the stream/feed-oracle
// equivalence gate to the suppression path, where localization runs in
// annotate instead of inside the analysis: reports — fused suspects,
// incidents, suppressed alert surface — must stay bit-identical across
// ingestion paths, worker counts and pipeline depths.
func TestMonitorSuppressionStreamMatchesFeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	spec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
	jobs, err := testbed.PlanJobs(spec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	topo0, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "suppression-equivalence", Topo: spec, Jobs: jobs,
		Horizon: 60 * time.Second,
		Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
			Kind: testbed.FaultSwitchDegrade, Switch: topo0.SpineSwitch(1),
			At: 15 * time.Second, Until: 60 * time.Second, Factor: 0.15,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	records, topo := res.Records, res.Topo
	const window = 15 * time.Second
	newM := func(workers int, opts ...MonitorOption) *Monitor {
		m, err := NewMonitor(New(WithWorkers(workers), WithSwitchBucket(5*time.Second), WithLocalization()), topo, window,
			append([]MonitorOption{WithChronicSuppression()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	want := feedAll(t, newM(1), records, len(records))
	if len(want) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(want))
	}
	var fused int
	for _, r := range want {
		fused += len(r.FusedSuspects)
	}
	if fused == 0 {
		t.Fatal("suppression run never produced fused suspects; fixture too quiet")
	}
	if got := feedAll(t, newM(8), records, len(records)); !reflect.DeepEqual(want, got) {
		t.Fatal("concurrent feed oracle diverges from sequential under suppression")
	}
	for _, depth := range []int{1, 3} {
		got := streamAll(t, newM(8, WithPipelineDepth(depth)), records, 500)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("depth=%d: stream reports diverge from the feed oracle under suppression", depth)
		}
	}
	// Arrival order within the allowed lateness must not matter either:
	// chronic classification and fused scores live on the serialized
	// in-order report path, so a permuted stream stays bit-identical.
	for seed := int64(0); seed < 2; seed++ {
		m := newM(8, WithPipelineDepth(3), WithLateness(2*time.Second))
		s, err := m.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := pushAll(t, s, permuteWithinLateness(records, time.Second, seed), 500)
		if s.Late() != 0 {
			t.Fatalf("seed %d: late = %d, want 0 (permutation stayed within lateness)", seed, s.Late())
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: permuted arrival diverges from the feed oracle under suppression", seed)
		}
	}
}
