package llmprism_test

// One benchmark per paper table/figure (E1-E5) and per ablation (A1-A3),
// running the same experiment harness as cmd/repro at reduced scale so a
// full `go test -bench=.` pass stays in the minutes range. cmd/repro runs
// the identical code at paper scale. Accuracy-style results are attached
// as custom benchmark metrics.

import (
	"bytes"
	"context"
	"fmt"
	"github.com/llmprism/llmprism"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/experiments"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stream"
)

// BenchmarkFig3JobRecognition regenerates E1 (Fig. 3): job recognition
// over a multi-tenant cluster from a 1-minute flow window.
func BenchmarkFig3JobRecognition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(context.Background(), experiments.Options{Scale: 0.15, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Recognition.ExactMatches)/float64(res.Recognition.TrueJobs), "recognition")
		b.ReportMetric(float64(res.JobClusters), "jobs")
	}
}

// BenchmarkTable1Parallelism regenerates E2 (Table I): pair classification
// accuracy with and without refinement over 1- and 3-minute windows.
func BenchmarkTable1Parallelism(b *testing.B) {
	// 10s steps keep ~4-5 steps inside the 1-minute window at this toy
	// scale, so the per-pair mode has enough votes to be representative
	// of the paper-scale configuration cmd/repro runs.
	cfg := experiments.Table1Config{
		Jobs:        1,
		NodesPerJob: 32,
		Windows:     []time.Duration{time.Minute, 3 * time.Minute},
		TargetStep:  10 * time.Second,
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(context.Background(), cfg, experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AccWithout, "acc_1m_worefine")
		b.ReportMetric(res.Rows[0].AccWith, "acc_1m_refined")
	}
}

// BenchmarkFig4Timeline regenerates E3 (§V-C/Fig. 4): timeline
// reconstruction error against ground truth.
func BenchmarkFig4Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(context.Background(), experiments.Options{Scale: 0.15, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.Score.MeanRelError, "err_pct")
	}
}

// BenchmarkFig5SwitchDiagnosis regenerates E4 (Fig. 5): switch-level
// bandwidth diagnosis under spine degradation.
func BenchmarkFig5SwitchDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(context.Background(), experiments.Options{Scale: 0.35, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.InjectedFlagged)/float64(len(res.Injected)), "recall")
		b.ReportMetric(float64(res.FalselyFlagged), "false_flags")
	}
}

// BenchmarkCrossStepDiagnosis regenerates the straggler half of E5 (§V-D).
func BenchmarkCrossStepDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Diagnosis(context.Background(), experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(boolMetric(res.StragglerJobDetected), "detected")
		b.ReportMetric(float64(res.CrossStepInWindow), "alerts_in_window")
	}
}

// BenchmarkCrossGroupDiagnosis regenerates the slow-DP-group half of E5.
func BenchmarkCrossGroupDiagnosis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Diagnosis(context.Background(), experiments.Options{Seed: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(boolMetric(res.SlowGroupDetected), "detected")
		b.ReportMetric(float64(res.CrossGroupAlerts), "alerts")
	}
}

// BenchmarkAblationNetsimMode regenerates A1: fluid vs analytic network
// model.
func BenchmarkAblationNetsimMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationNetsimMode(context.Background(), experiments.Options{Scale: 0.15, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.FairShareError, "fair_err_pct")
		b.ReportMetric(100*res.AnalyticError, "analytic_err_pct")
	}
}

// BenchmarkAblationStepSplitter regenerates A2: BOCD vs naive splitting.
func BenchmarkAblationStepSplitter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationStepSplitter(context.Background(), experiments.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.BOCDStepCountErr, "bocd_err_pct")
		b.ReportMetric(100*res.NaiveStepCountErr, "naive_err_pct")
	}
}

// BenchmarkAblationRingCount regenerates A3: ring count vs refinement.
func BenchmarkAblationRingCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationRingCount(context.Background(), experiments.Options{Scale: 0.5, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].AccWith, "acc_1ring")
		b.ReportMetric(res.Rows[len(res.Rows)-1].AccWith, "acc_4ring")
	}
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// --- analysis-phase micro-benchmarks on a shared pre-simulated trace ---

var (
	benchOnce    sync.Once
	benchRecords []flow.Record
	benchTopo    *llmprism.Topology
	benchErr     error
)

func benchTrace(b *testing.B) ([]flow.Record, *llmprism.Topology) {
	b.Helper()
	benchOnce.Do(func() {
		topoSpec := llmprism.TopologySpec{Nodes: 32, NodesPerLeaf: 8, Spines: 4}
		jobs, err := llmprism.PlanJobs(topoSpec, []llmprism.JobPlan{
			{Nodes: 16, TargetStep: 3 * time.Second},
			{Nodes: 8, TargetStep: 2 * time.Second},
			{Nodes: 8, TargetStep: 4 * time.Second},
		}, 1)
		if err != nil {
			benchErr = err
			return
		}
		res, err := llmprism.Simulate(llmprism.Scenario{
			Name: "bench-trace", Topo: topoSpec, Jobs: jobs,
			Faults:  faults.Schedule{},
			Horizon: 60 * time.Second,
		})
		if err != nil {
			benchErr = err
			return
		}
		benchRecords = res.Records
		benchTopo = res.Topo
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchRecords, benchTopo
}

// BenchmarkAnalyzePipeline measures the cost of the full four-phase
// analysis over one minute of flows from a 256-GPU platform — the quantity
// that determines whether continuous monitoring keeps up with collection.
// It runs at the default worker count (GOMAXPROCS).
func BenchmarkAnalyzePipeline(b *testing.B) {
	records, topo := benchTrace(b)
	analyzer := llmprism.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Analyze(records, topo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkAnalyze measures the same pipeline at fixed worker counts over
// the multi-job trace; workers=1 is the sequential baseline the multi-core
// speedup is read against (the three jobs' identify → timeline → diagnose
// chains dominate the runtime and fan out per job).
//
// Two ceilings cap the workers=N/workers=1 ratio, so read it against the
// host before calling it a regression:
//   - GOMAXPROCS: on a single-core host (the committed BENCH_analyze.json
//     baselines run on one) every count degenerates to serial execution
//     plus synchronization overhead, and the ratio hovers around 1.0x.
//   - Job granularity: the pool fans out per job, and this trace has three
//     jobs with a dominant 16-node job on the critical path, so even with
//     free cores the ratio is bounded near sum(job costs)/max(job cost)
//     ≈ 2x, not N. The frame build ahead of the fan-out is the parallel
//     BuildParallel and scales with cores independently of job count.
func BenchmarkAnalyze(b *testing.B) {
	records, topo := benchTrace(b)
	counts := []int{1, 2, 4}
	if n := runtime.GOMAXPROCS(0); n > counts[len(counts)-1] {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			analyzer := llmprism.New(llmprism.WithWorkers(workers))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := analyzer.AnalyzeContext(context.Background(), records, topo); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(records)), "records/op")
		})
	}
}

// BenchmarkFrameBuild measures loading one window of records into the
// columnar frame — the sort, the column fill, and the path interning that
// every analysis now pays exactly once per window.
func BenchmarkFrameBuild(b *testing.B) {
	records, _ := benchTrace(b)
	b.ReportAllocs()
	b.ResetTimer()
	var frame *llmprism.FlowFrame
	for i := 0; i < b.N; i++ {
		frame = flow.NewFrame(records)
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(frame.PathTable().NumPaths()), "paths")
}

// BenchmarkFrameBuildParallel isolates the close-time Build over a
// pre-filled builder at fixed worker counts: workers=1 is the serial
// reference; higher counts run the sharded row sort, parallel column
// permutation, and parallel index build — all byte-identical to serial.
// The speedup is only visible when GOMAXPROCS > 1; on a single-core host
// the workers=4 run measures the sharding overhead instead (it must stay
// within a few percent of serial — the work partition is the same
// comparisons split into per-shard sorts plus one linear merge).
func BenchmarkFrameBuildParallel(b *testing.B) {
	records, _ := benchTrace(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				builder := flow.NewFrameBuilder()
				builder.Grow(len(records))
				for _, r := range records {
					builder.AppendRecord(r)
				}
				b.StartTimer()
				builder.BuildParallel(workers)
			}
			b.ReportMetric(float64(len(records)), "records/op")
		})
	}
}

// BenchmarkPushFrame measures the engine's one ingest over one window's
// rows from two starting points: "records" is what a record batch costs
// (MonitorStream.Push, the CLI monitor: build the batch's frame, then
// PushFrame it), "bulk" is an already-decoded frame (wire ingest, archive
// replay: wholesale column appends plus a one-shot path-table remap). The
// window is wider than the trace so nothing closes — this is pure
// ingest-to-builder cost.
func BenchmarkPushFrame(b *testing.B) {
	records, _ := benchTrace(b)
	frame := flow.NewFrame(records)
	byStart := frame.RecordsByStart()
	cfg := stream.Config{Width: 24 * time.Hour}
	noop := func(_ context.Context, _ stream.Window, _ *flow.Frame) (struct{}, error) {
		return struct{}{}, nil
	}
	b.Run("records", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := stream.New(cfg, noop)
			if err := e.PushFrame(context.Background(), flow.NewFrame(byStart)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(records)), "records/op")
	})
	b.Run("bulk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			e := stream.New(cfg, noop)
			if err := e.PushFrame(context.Background(), frame); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(records)), "records/op")
	})
}

// BenchmarkAnalyzeFrame measures the pipeline over a pre-built frame at the
// default worker count: the steady-state cost when the collector emits
// frames directly and the analyzer never touches a record slice.
func BenchmarkAnalyzeFrame(b *testing.B) {
	records, topo := benchTrace(b)
	frame := flow.NewFrame(records)
	analyzer := llmprism.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.AnalyzeFrame(frame, topo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

var (
	smallJobsOnce    sync.Once
	smallJobsRecords []flow.Record
	smallJobsTopo    *llmprism.Topology
	smallJobsErr     error
)

// smallJobsTrace simulates one minute of eight 2-node jobs on a 16-node
// fabric (4 nodes per leaf, 8 spines): every job is PP 2 x DP 2, so each
// rank's DP traffic is one pair.
func smallJobsTrace(b *testing.B) ([]flow.Record, *llmprism.Topology) {
	b.Helper()
	smallJobsOnce.Do(func() {
		topoSpec := llmprism.TopologySpec{Nodes: 16, NodesPerLeaf: 4, Spines: 8}
		plans := make([]llmprism.JobPlan, 8)
		for i := range plans {
			plans[i] = llmprism.JobPlan{Nodes: 2, TargetStep: 3 * time.Second}
		}
		jobs, err := llmprism.PlanJobs(topoSpec, plans, 1)
		if err != nil {
			smallJobsErr = err
			return
		}
		res, err := llmprism.Simulate(llmprism.Scenario{
			Name: "bench-small-jobs", Topo: topoSpec, Jobs: jobs,
			Horizon: 60 * time.Second,
		})
		if err != nil {
			smallJobsErr = err
			return
		}
		smallJobsRecords = res.Records
		smallJobsTopo = res.Topo
	})
	if smallJobsErr != nil {
		b.Fatal(smallJobsErr)
	}
	return smallJobsRecords, smallJobsTopo
}

// BenchmarkAnalyzeFrameSmallJobs is BenchmarkAnalyzeFrame over eight
// 2-node jobs, the shape in which timeline reconstruction takes every
// rank's step segments from identification instead of splitting the same
// DP pair again. BenchmarkAnalyzeFrame has no DP = 2 job and measures the
// path without that reuse.
func BenchmarkAnalyzeFrameSmallJobs(b *testing.B) {
	records, topo := smallJobsTrace(b)
	frame := flow.NewFrame(records)
	analyzer := llmprism.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.AnalyzeFrame(frame, topo); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// --- trace persistence: binary frame archive vs text codecs ---

// BenchmarkLoadTraceCSV is the text baseline the archive replaces: parse
// the CSV trace and rebuild the columnar frame (sort + path interning) —
// the cost every offline re-diagnosis paid before the binary format.
func BenchmarkLoadTraceCSV(b *testing.B) {
	records, _ := benchTrace(b)
	var csvBuf bytes.Buffer
	if err := flow.WriteCSV(&csvBuf, records); err != nil {
		b.Fatal(err)
	}
	data := csvBuf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, err := flow.ReadCSV(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if f := flow.NewFrame(recs); f.Len() != len(records) {
			b.Fatal("frame row mismatch")
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(len(data)), "bytes")
}

// BenchmarkLoadTraceBinary decodes the same trace from the binary frame
// layout: a validated column copy plus index rebuild, no parsing; the start
// index is the one linear radix sort.
func BenchmarkLoadTraceBinary(b *testing.B) {
	records, _ := benchTrace(b)
	frame := flow.NewFrame(records)
	var binBuf bytes.Buffer
	if _, err := frame.WriteTo(&binBuf); err != nil {
		b.Fatal(err)
	}
	data := binBuf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := flow.ReadFrame(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if f.Len() != len(records) {
			b.Fatal("frame row mismatch")
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(len(data)), "bytes")
}

// BenchmarkArchiveWrite measures archiving the trace as one segment —
// the per-window persistence cost a recording monitor session adds.
func BenchmarkArchiveWrite(b *testing.B) {
	records, _ := benchTrace(b)
	frame := flow.NewFrame(records)
	from := records[0].Start // start order: the one-minute window the trace fills
	to := from.Add(time.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		aw, err := archive.NewWriter(&buf, archive.Meta{Width: time.Minute, Hop: time.Minute})
		if err != nil {
			b.Fatal(err)
		}
		if err := aw.Append(0, from, to, frame); err != nil {
			b.Fatal(err)
		}
		if err := aw.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkArchiveRead measures reopening that archive and decoding its
// frame — manifest validation plus the binary column decode.
func BenchmarkArchiveRead(b *testing.B) {
	records, _ := benchTrace(b)
	frame := flow.NewFrame(records)
	from := records[0].Start // start order: the one-minute window the trace fills
	to := from.Add(time.Minute)
	var buf bytes.Buffer
	aw, err := archive.NewWriter(&buf, archive.Meta{Width: time.Minute, Hop: time.Minute})
	if err != nil {
		b.Fatal(err)
	}
	if err := aw.Append(0, from, to, frame); err != nil {
		b.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ar, err := archive.OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			b.Fatal(err)
		}
		f, err := ar.Frame(0)
		if err != nil {
			b.Fatal(err)
		}
		if f.Len() != len(records) {
			b.Fatal("frame row mismatch")
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
	b.ReportMetric(float64(len(data)), "bytes")
}

// monitorBenchBatches slices the trace into collector-export-sized batches
// (1-second cadence), computed once so the benches measure ingestion and
// analysis, not slicing.
var monitorBenchBatches [][]flow.Record

func benchBatches(b *testing.B) [][]flow.Record {
	b.Helper()
	records, _ := benchTrace(b)
	if monitorBenchBatches == nil {
		const cadence = time.Second
		cut := records[0].Start.Add(cadence)
		lo := 0
		for i, r := range records {
			if r.Start.After(cut) {
				monitorBenchBatches = append(monitorBenchBatches, records[lo:i])
				lo = i
				cut = cut.Add(cadence)
			}
		}
		monitorBenchBatches = append(monitorBenchBatches, records[lo:])
	}
	return monitorBenchBatches
}

// monitorBenchWindow gives the 60-second bench trace 12 windows, so the
// per-push ingest cost is measured across enough window turnover to expose
// any dependence on total buffered history.
const monitorBenchWindow = 5 * time.Second

// BenchmarkMonitorStream measures the pipelined streaming session over the
// bench trace in collector batches: each batch built into a frame and
// routed into its windows' builders, with closed windows analyzing
// asynchronously at the given pipeline depth.
func BenchmarkMonitorStream(b *testing.B) {
	batches := benchBatches(b)
	records, topo := benchTrace(b)
	for _, depth := range []int{1, 4} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				monitor, err := llmprism.NewMonitor(llmprism.New(), topo, monitorBenchWindow, llmprism.WithPipelineDepth(depth))
				if err != nil {
					b.Fatal(err)
				}
				s, err := monitor.Stream(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				for _, batch := range batches {
					if _, err := s.Push(batch); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(records)), "records/op")
		})
	}
}
