package llmprism

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/testbed"
)

// concurrencyTrace simulates a three-job window once per test binary; the
// determinism tests below re-analyze it at several worker counts.
var (
	concOnce    sync.Once
	concRecords []FlowRecord
	concTopo    *Topology
	concErr     error
)

func concurrencyTrace(t testing.TB) ([]FlowRecord, *Topology) {
	t.Helper()
	concOnce.Do(func() {
		topoSpec := TopologySpec{Nodes: 24, NodesPerLeaf: 8, Spines: 4}
		jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
			{Nodes: 8, TargetStep: 2 * time.Second},
			{Nodes: 8, TargetStep: 3 * time.Second},
			{Nodes: 4, TargetStep: 2 * time.Second},
		}, 23)
		if err != nil {
			concErr = err
			return
		}
		res, err := testbed.Simulate(testbed.Scenario{
			Name: "concurrency", Topo: topoSpec, Jobs: jobs, Horizon: 20 * time.Second,
		})
		if err != nil {
			concErr = err
			return
		}
		concRecords = res.Records
		concTopo = res.Topo
	})
	if concErr != nil {
		t.Fatal(concErr)
	}
	return concRecords, concTopo
}

// faultedTrace simulates a multi-tenant window with a degraded spine once
// per test binary; the localization determinism tests re-analyze it at
// several worker counts.
var (
	faultOnce    sync.Once
	faultRecords []FlowRecord
	faultTopo    *Topology
	faultSpine   SwitchID
	faultErr     error
)

func faultedTrace(t testing.TB) ([]FlowRecord, *Topology, SwitchID) {
	t.Helper()
	faultOnce.Do(func() {
		topoSpec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
		topo, err := NewTopology(topoSpec)
		if err != nil {
			faultErr = err
			return
		}
		faultSpine = topo.SpineSwitch(1)
		jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
			{Nodes: 8, TargetStep: 2 * time.Second},
			{Nodes: 8, TargetStep: 2 * time.Second},
			{Nodes: 8, TargetStep: 2 * time.Second},
		}, 13)
		if err != nil {
			faultErr = err
			return
		}
		res, err := testbed.Simulate(testbed.Scenario{
			Name: "faulted", Topo: topoSpec, Jobs: jobs,
			Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
				Kind: testbed.FaultSwitchDegrade, Switch: faultSpine,
				At: 10 * time.Second, Until: 40 * time.Second, Factor: 0.1,
			}}},
			Horizon: 40 * time.Second,
		})
		if err != nil {
			faultErr = err
			return
		}
		faultRecords = res.Records
		faultTopo = res.Topo
	})
	if faultErr != nil {
		t.Fatal(faultErr)
	}
	return faultRecords, faultTopo, faultSpine
}

// TestLocalizationDeterministicAcrossWorkers: the ranked suspect list of a
// degraded-spine window must be bit-identical for every analysis worker
// count — localization folds its evidence on the in-order merge path, not
// inside the fan-out. Run with -race.
func TestLocalizationDeterministicAcrossWorkers(t *testing.T) {
	records, topo, spine := faultedTrace(t)
	analyze := func(workers int) *Report {
		report, err := New(
			WithWorkers(workers),
			WithSwitchBucket(5*time.Second),
			WithLocalization(),
		).Analyze(records, topo)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	want := analyze(1)
	if len(want.Suspects) == 0 {
		t.Fatal("degraded-spine window produced no suspects")
	}
	if top := want.Suspects[0].Component; top != (SuspectComponent{Kind: ComponentSwitch, Switch: spine}) {
		t.Errorf("top suspect = %v, want the degraded spine %v", top, spine)
	}
	for _, workers := range []int{2, 8} {
		got := analyze(workers)
		if !reflect.DeepEqual(want.Suspects, got.Suspects) {
			t.Errorf("workers=%d: suspects diverge from sequential run\nwant %+v\ngot  %+v",
				workers, want.Suspects, got.Suspects)
		}
	}
}

// TestAnalyzeContextMatchesSequential is the pipeline's determinism
// guarantee: the concurrent analysis of a multi-job window must be
// deep-equal — including float-typed alert values and switch series — to
// the sequential WithWorkers(1) pipeline's. Run with -race to also verify
// the fan-out is data-race-free.
func TestAnalyzeContextMatchesSequential(t *testing.T) {
	records, topo := concurrencyTrace(t)
	seq, err := New(WithWorkers(1)).Analyze(records, topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3 (need a multi-job window to exercise the pool)", len(seq.Jobs))
	}
	for _, workers := range []int{2, 8} {
		par, err := New(WithWorkers(workers)).AnalyzeContext(context.Background(), records, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("workers=%d: report diverges from sequential pipeline", workers)
		}
	}
}

// analyzeRecordsSequential is the reference the shipped frame path must
// match bit for bit: sort a copy, recognize, split per-job record slices,
// then run identify → timeline → diagnose sequentially, each job over a
// frame built from its own records alone. That frame shares no row index,
// pair index or permutation with the window frame AnalyzeFrameContext
// selects job views from, so the comparison pins the shared-window views to
// per-job frames. Each analysis package pins its view path to its
// record-slice oracle (oracle_test.go), over whole frames and over every
// job view of a multi-job frame; the two steps together tie the shipped
// pipeline to the record-slice pipeline.
func analyzeRecordsSequential(cfg Config, records []FlowRecord, mapper jobrec.ServerMapper) *Report {
	sorted := make([]flow.Record, len(records))
	copy(sorted, records)
	flow.SortByStart(sorted)

	clusters := jobrec.RecognizeFrame(flow.NewFrame(sorted), mapper, cfg.Recognition)
	owner := make(map[flow.Addr]int)
	for i, c := range clusters {
		for _, a := range c.Endpoints {
			owner[a] = i + 1
		}
	}
	perJob := make([][]flow.Record, len(clusters))
	for _, r := range sorted {
		if i := owner[r.Src]; i > 0 && owner[r.Dst] == i {
			perJob[i-1] = append(perJob[i-1], r)
		}
	}

	report := &Report{}
	merged := diagnose.NewSeriesAccum(cfg.Diagnosis)
	for i, cluster := range clusters {
		jobRecs := perJob[i]
		v := flow.NewFrame(jobRecs).All()
		cls := parallel.IdentifyView(v, cfg.Parallel)
		tls := timeline.ReconstructView(v, cls.Types, cfg.Timeline)
		var alerts []diagnose.Alert
		alerts = append(alerts, diagnose.CrossStep(tls, cfg.Diagnosis)...)
		alerts = append(alerts, diagnose.CrossGroup(tls, cls.DPGroups, cfg.Diagnosis)...)
		series := diagnose.NewSeriesAccum(cfg.Diagnosis)
		series.AddView(v, cls.Types)
		merged.Merge(series)
		report.Jobs = append(report.Jobs, JobReport{
			Cluster:      cluster,
			Records:      jobRecs,
			Types:        cls.Types,
			DPGroups:     cls.DPGroups,
			StepsPerPair: cls.StepsPerPair,
			Timelines:    tls,
			Alerts:       alerts,
		})
	}
	report.SwitchSeries = merged.Series()
	report.SwitchAlerts = diagnose.SwitchDiagnose(report.SwitchSeries, cfg.Diagnosis)
	return report
}

// TestAnalyzeFrameMatchesRecordSlice is the acceptance gate of the
// columnar store: the frame-based pipeline — sequential and concurrent —
// must be deep-equal to the per-job reference pipeline above, including
// float-typed alert values, per-switch series (float summation order), and
// the materialized JobReport.Records. Run with -race to also verify the
// shared frame is safe to read from every worker.
func TestAnalyzeFrameMatchesRecordSlice(t *testing.T) {
	records, topo := concurrencyTrace(t)
	want := analyzeRecordsSequential(Config{}, records, topo)
	if len(want.Jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(want.Jobs))
	}
	// The 4-node job (PP 2 x DP 2) has only two-member DP groups, so each
	// of its ranks' DP flows are one pair's flows and its timelines reuse
	// identification's segments; the reference below always splits.
	if pairOnlyDPJob(want) < 0 {
		t.Fatal("no job with only two-member DP groups: the segment reuse goes unexercised")
	}
	frame := flow.NewFrame(records)
	for _, workers := range []int{1, 2, 8} {
		got, err := New(WithWorkers(workers)).AnalyzeFrameContext(context.Background(), frame, topo)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: frame report diverges from record-slice reference", workers)
		}
	}
	// The record-slice entry point is an adapter over the same frame path.
	got, err := New().Analyze(records, topo)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Analyze adapter diverges from record-slice reference")
	}
}

// pairOnlyDPJob returns the index of the first job of r whose DP groups
// all have two members, -1 if there is none. Every rank of such a job sends
// its DP flows over one pair.
func pairOnlyDPJob(r *Report) int {
	for i, j := range r.Jobs {
		pairOnly := len(j.DPGroups) > 0
		for _, g := range j.DPGroups {
			pairOnly = pairOnly && len(g) == 2
		}
		if pairOnly {
			return i
		}
	}
	return -1
}

// TestAnalyzeJobOrderDeterministic pins the merge order contract: jobs are
// reported by smallest endpoint regardless of which worker finishes first.
func TestAnalyzeJobOrderDeterministic(t *testing.T) {
	records, topo := concurrencyTrace(t)
	report, err := New(WithWorkers(8)).AnalyzeContext(context.Background(), records, topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(report.Jobs); i++ {
		prev := report.Jobs[i-1].Cluster.Endpoints[0]
		cur := report.Jobs[i].Cluster.Endpoints[0]
		if cur <= prev {
			t.Errorf("job %d smallest endpoint %v not after job %d's %v", i, cur, i-1, prev)
		}
	}
}

func TestAnalyzeContextCanceled(t *testing.T) {
	records, topo := concurrencyTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := New(WithWorkers(workers)).AnalyzeContext(ctx, records, topo)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}
