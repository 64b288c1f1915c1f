package llmprism

import (
	"bytes"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

func TestOptionsApply(t *testing.T) {
	var cfg Config
	for _, opt := range []Option{
		WithoutRefinement(),
		WithSigmaK(4),
		WithSwitchBucket(30 * time.Second),
		WithMaxConcurrentDPFlows(100),
	} {
		opt(&cfg)
	}
	if !cfg.Parallel.DisableRefinement {
		t.Error("WithoutRefinement not applied")
	}
	if cfg.Diagnosis.K != 4 {
		t.Error("WithSigmaK not applied")
	}
	if cfg.Diagnosis.Bucket != 30*time.Second {
		t.Error("WithSwitchBucket not applied")
	}
	if cfg.Diagnosis.MaxConcurrentDPFlows != 100 {
		t.Error("WithMaxConcurrentDPFlows not applied")
	}
	full := Config{Parallel: parallel.Config{MinFlows: 7}}
	var cfg2 Config
	WithConfig(full)(&cfg2)
	if cfg2.Parallel.MinFlows != 7 {
		t.Error("WithConfig not applied")
	}
}

func TestReportAlertsOrder(t *testing.T) {
	r := &Report{
		Jobs: []JobReport{
			{Alerts: []Alert{{Kind: AlertCrossStep}}},
			{Alerts: []Alert{{Kind: AlertCrossGroup}}},
		},
		SwitchAlerts: []Alert{{Kind: AlertSwitchBandwidth}},
	}
	alerts := r.Alerts()
	if len(alerts) != 3 {
		t.Fatalf("alerts = %d, want 3", len(alerts))
	}
	if alerts[0].Kind != AlertCrossStep || alerts[2].Kind != AlertSwitchBandwidth {
		t.Error("alert order wrong: job alerts first, then switch alerts")
	}
}

func TestAnalyzeDoesNotMutateInput(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	epoch := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	records := []FlowRecord{
		{ID: 2, Start: epoch.Add(time.Second), Src: topo.AddrOf(0, 0), Dst: topo.AddrOf(1, 0), Bytes: 10},
		{ID: 1, Start: epoch, Src: topo.AddrOf(0, 0), Dst: topo.AddrOf(1, 0), Bytes: 10},
	}
	if _, err := New().Analyze(records, topo); err != nil {
		t.Fatal(err)
	}
	if records[0].ID != 2 {
		t.Error("Analyze reordered the caller's slice")
	}
}

// TestPublicCodecAliases round-trips the public FlowRecord alias through
// the text codecs the CLIs read and write (flowgen writes CSV; llmprism
// reads CSV or JSONL by extension).
func TestPublicCodecAliases(t *testing.T) {
	records := []FlowRecord{{ID: 1, Start: time.Unix(0, 0).UTC(), Src: 1, Dst: 2, Bytes: 9}}
	var csvBuf, jsonBuf bytes.Buffer
	if err := flow.WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	got, err := flow.ReadCSV(&csvBuf)
	if err != nil || len(got) != 1 || got[0].Bytes != 9 {
		t.Errorf("CSV round trip failed: %v %v", got, err)
	}
	if err := flow.WriteJSONL(&jsonBuf, records); err != nil {
		t.Fatal(err)
	}
	got, err = flow.ReadJSONL(&jsonBuf)
	if err != nil || len(got) != 1 || got[0].Bytes != 9 {
		t.Errorf("JSONL round trip failed: %v %v", got, err)
	}
}

func TestAnalyzerRobustToDuplicatesAndSplits(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// Heavy collector noise: duplicates and record splitting must not
	// change what the pipeline concludes.
	topoSpec := TopologySpec{Nodes: 8, NodesPerLeaf: 8, Spines: 2}
	jobs, err := PlanJobs(topoSpec, []JobPlan{{Nodes: 8, TargetStep: 2 * time.Second}}, 19)
	if err != nil {
		t.Fatal(err)
	}
	scenario := Scenario{
		Name: "noisy", Topo: topoSpec, Jobs: jobs, Horizon: 20 * time.Second,
	}
	scenario.Collector.DuplicateProb = 0.10
	scenario.Collector.TimeJitter = 5 * time.Microsecond
	scenario.Collector.Seed = 19
	res, err := Simulate(scenario)
	if err != nil {
		t.Fatal(err)
	}
	report, err := New().Analyze(res.Records, res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1", len(report.Jobs))
	}
	tj := res.Truth.Jobs[0]
	correct, total := 0, 0
	for p, ty := range report.Jobs[0].Types {
		want, ok := tj.Pairs[flow.MakePair(p.A, p.B)]
		if !ok {
			continue
		}
		total++
		if (ty == TypeDP) == (want == 2) { // truth.PairDP == 2
			correct++
		}
	}
	if total == 0 || correct != total {
		t.Errorf("classification under noise: %d/%d", correct, total)
	}
}
