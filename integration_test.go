package llmprism

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/truth"
	"github.com/llmprism/llmprism/testbed"
)

// truthJobOf returns the ground-truth job owning addr, or nil.
func truthJobOf(p *truth.Platform, addr flow.Addr) *truth.Job {
	for i := range p.Jobs {
		for _, a := range p.Jobs[i].Addrs {
			if a == addr {
				return &p.Jobs[i]
			}
		}
	}
	return nil
}

// simulateSmallPlatform runs a 3-job platform for the given horizon.
func simulateSmallPlatform(t testing.TB, horizon time.Duration, sched faults.Schedule) *testbed.SimResult {
	t.Helper()
	topoSpec := TopologySpec{Nodes: 24, NodesPerLeaf: 8, Spines: 4}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 3 * time.Second},
		{Nodes: 4, TargetStep: 2 * time.Second},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name:    "integration",
		Topo:    topoSpec,
		Jobs:    jobs,
		Faults:  sched,
		Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	res := simulateSmallPlatform(t, 30*time.Second, faults.Schedule{})
	report, err := New().Analyze(res.Records, res.Topo)
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: every job recognized exactly.
	var clusters [][]flow.Addr
	for _, j := range report.Jobs {
		clusters = append(clusters, j.Cluster.Endpoints)
	}
	rec := truth.ScoreRecognition(clusters, res.Truth.Jobs)
	if !rec.Perfect() {
		t.Errorf("recognition not perfect: %+v", rec)
	}

	// Phase 2: pair classification 100%.
	for _, j := range report.Jobs {
		tj := truthJobOf(&res.Truth, j.Cluster.Endpoints[0])
		if tj == nil {
			t.Fatalf("no truth job for cluster starting at %v", j.Cluster.Endpoints[0])
		}
		pred := make(map[flow.Pair]truth.PairType, len(j.Types))
		for p, ty := range j.Types {
			if ty == parallel.TypeDP {
				pred[p] = truth.PairDP
			} else {
				pred[p] = truth.PairPP
			}
		}
		score := truth.ScorePairs(pred, *tj)
		if score.Total == 0 {
			t.Errorf("job %d: no pairs evaluated", tj.ID)
		}
		if acc := score.Accuracy(); acc < 1 {
			t.Errorf("job %d: pair accuracy %.4f (%d/%d), want 1.0",
				tj.ID, acc, score.Correct, score.Total)
		}
	}

	// Phase 3: timeline reconstruction error. The irreducible error is the
	// network-invisible step tail (12ms post-step for ZeRO jobs, +25ms
	// optimizer for all-reduce jobs); with the 2-3s steps of this compact
	// scenario that is up to ~1.3% relative. The paper-scale experiment
	// (10s+ steps) asserts the paper's 0.3% bound in bench_test.go.
	for _, j := range report.Jobs {
		tj := truthJobOf(&res.Truth, j.Cluster.Endpoints[0])
		score := truth.ScoreTimeline(j.Timelines, res.Truth.Epoch, *tj)
		if score.MatchedSteps == 0 {
			t.Errorf("job %d: no steps matched", tj.ID)
			continue
		}
		if score.MeanRelError > 0.015 {
			t.Errorf("job %d: mean reconstruction error %.4f%%, want <= 1.5%%",
				tj.ID, 100*score.MeanRelError)
		}
	}

	// Phase 4: a healthy platform should raise few or no alerts.
	if alerts := report.Alerts(); len(alerts) > 10 {
		t.Errorf("healthy platform raised %d alerts", len(alerts))
	}
}

func TestEndToEndStragglerDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Slow down one GPU of job 1 (nodes 0..7) mid-run.
	victim := flow.Addr(3) // node 0, gpu 3
	sched := faults.Schedule{Faults: []faults.Fault{{
		Kind: faults.KindRankSlowdown, Addr: victim,
		At: 15 * time.Second, Until: 30 * time.Second, Factor: 4,
	}}}
	res := simulateSmallPlatform(t, 40*time.Second, sched)
	report, err := New().Analyze(res.Records, res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	var crossStep int
	for _, a := range report.Alerts() {
		if a.Kind == AlertCrossStep {
			crossStep++
		}
	}
	if crossStep == 0 {
		t.Error("straggler injected but no cross-step alerts raised")
	}
}

func TestEndToEndSwitchDegradationDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// 3 nodes per leaf so every 4-node pipeline stage (= DP group) spans
	// two leaves: DP collectives then traverse the spine layer, which is
	// what the switch-level diagnosis observes.
	topoSpec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
	topo, err := topology.New(topoSpec)
	if err != nil {
		t.Fatal(err)
	}
	badSpine := topo.SpineSwitch(1)
	sched := faults.Schedule{Faults: []faults.Fault{{
		Kind: faults.KindSwitchDegrade, Switch: badSpine,
		At: 20 * time.Second, Until: 60 * time.Second, Factor: 0.15,
	}}}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "switch-fault", Topo: topoSpec, Jobs: jobs,
		Faults: sched, Horizon: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	report, err := New(WithSwitchBucket(10*time.Second)).Analyze(res.Records, res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	foundBad := false
	for _, a := range report.SwitchAlerts {
		if a.Kind == AlertSwitchBandwidth && a.Switch == badSpine {
			foundBad = true
		}
	}
	if !foundBad {
		t.Errorf("degraded spine %v not flagged; alerts: %d", badSpine, len(report.SwitchAlerts))
		for _, a := range report.SwitchAlerts {
			t.Logf("alert: %+v", a)
		}
	}
}

func TestAnalyzeValidation(t *testing.T) {
	a := New()
	if _, err := a.Analyze(nil, nil); err == nil {
		t.Error("empty records should fail")
	}
	topo, err := topology.New(TopologySpec{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.Analyze([]flow.Record{{Src: 1, Dst: 2}}, nil); err == nil {
		t.Error("nil mapper should fail")
	}
	if _, err := a.Analyze([]flow.Record{{Src: 1, Dst: 2, Bytes: 10}}, topo); err != nil {
		t.Errorf("minimal analyze failed: %v", err)
	}
}

func TestSimulateToCSVRoundTripAnalysis(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	res := simulateSmallPlatform(t, 15*time.Second, faults.Schedule{})
	report1, err := New().Analyze(res.Records, res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip the records through platform.Result's own window and the
	// analyzer: a sub-window must still recognize all three jobs.
	win := res.Window(5*time.Second, 8*time.Second)
	report2, err := New().Analyze(win, res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(report2.Jobs) != len(report1.Jobs) {
		t.Errorf("window analysis found %d jobs, full found %d", len(report2.Jobs), len(report1.Jobs))
	}
}
