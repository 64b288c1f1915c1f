// Package llmprism is a black-box performance diagnosis library for LLM
// training platforms, reproducing the LLMPrism system (DSN 2025).
//
// From switch-level network flow records alone — no tenant cooperation, no
// code instrumentation — it progressively:
//
//  1. recognizes the individual training jobs running on the platform,
//  2. identifies each job's parallelism strategy (which endpoint pairs are
//     pipeline-parallel and which are data-parallel),
//  3. reconstructs per-GPU training timelines with step boundaries, and
//  4. diagnoses performance degradations (slow steps, slow DP groups,
//     congested or degraded switches).
//
// The package also exposes a full platform simulator (Simulate) that stands
// in for a production multi-tenant GPU cluster: topology, 3D-parallel
// training jobs, a fluid network model, ERSPAN-style flow collection, and
// fault injection — everything needed to reproduce the paper's evaluation
// end to end.
//
// # Quick start
//
//	res, err := llmprism.Simulate(scenario)       // or load real flows
//	report, err := llmprism.New().Analyze(res.Records, res.Topo)
//	for _, job := range report.Jobs { ... }
//
// # Concurrency and data layout
//
// Analysis runs over an immutable columnar flow.Frame: the window's records
// are loaded once into struct-of-arrays columns with switch paths interned
// into a shared table, sorted by (endpoint pair, start, id). Analyze and
// AnalyzeContext build the frame from a record slice as thin adapters;
// AnalyzeFrame accepts an already-built frame (an archive replay's, or the
// collector's own builder).
//
// After job recognition — a DSU pass over the frame's pair index — each
// recognized job's identify → timeline → diagnose chain is independent, so
// the pipeline hands each worker a zero-copy view of its job's rows and
// fans jobs out to a worker pool sized by WithWorkers (default GOMAXPROCS),
// merging the per-job results back in deterministic smallest-endpoint
// order; the switch-level series is assembled from per-job partial
// aggregations merged in that same order. The report is therefore
// bit-identical for any worker count, including the sequential
// WithWorkers(1) form. The cmd/llmprism and cmd/repro CLIs expose the knob
// as -workers.
//
// # Streaming monitor
//
// Monitor runs the pipeline continuously, the paper's deployment mode.
// Records are windowed on an event-time grid (width, hop, allowed
// lateness — see WithHop and WithLateness); a window closes when the
// watermark (newest record start minus lateness) passes its end, and
// empty completed windows still yield bounds-carrying reports so window
// sequence numbers line up with wall clock. Monitor.Stream is the one
// ingestion path: per-window columnar builders ingest records
// incrementally — including out-of-order arrivals within the lateness
// bound — and closed windows analyze asynchronously (WithPipelineDepth)
// while newer records keep ingesting. Reports are released strictly in
// window order; records later than the lateness bound are dropped and
// counted. Across windows, a job registry stamps stable JobIDs by
// endpoint-set matching, change-point detectors are reused via Reset
// instead of rebuilt, and Report.Incidents tracks each anomaly's
// first-seen/still-firing state so a persistent fault is one ongoing
// incident, not one alert pile per window. WithChronicSuppression goes
// further: anomalies firing since the monitor's first windows that never
// resolve are classified chronic and suppressed from the alert surface
// and localization evidence, and with localization enabled
// Report.FusedSuspects accumulates each suspect component's score across
// windows so one persistent root cause outranks per-window noise. The
// cmd/llmprism CLI exposes this as the monitor subcommand (-window, -hop,
// -lateness, -localize, -suppress-chronic).
//
// # Operating point
//
// The pipeline runs at the paper's one operating point, so these values
// are constants rather than options. Recognition merges cross-machine
// clusters whose server sets are identical (Jaccard similarity 1). A pair
// needs 2 flows to be classified, a rank 4 DP flows for its steps to be
// reconstructed, and a k-sigma decision a population of 6. Across
// windows, a cluster inherits a job's identity at endpoint-set Jaccard
// similarity 0.5 or more, and a job unmatched for 8 windows is forgotten.
// WithLocalization ranks at most 8 suspects, each scoring at least 0.02,
// with the bandwidth contrast clamped to [1/16, 16]. The monitor's fused
// suspect ranking lists at most 8 components, decays every sum by 0.5 per
// window and forgets a component after its second consecutive missed
// window. WithChronicSuppression calls an incident chronic once it has
// fired 3 consecutive windows, having opened within 2 windows of the first
// alert. WithCoverageGuard judges a window against the mean row count of
// the last 8 healthy windows, once 3 have accumulated, and marks it
// degraded below half of that. The k of the k-sigma rule (WithSigmaK,
// default 3), the switch bucket and the tier and rail classifiers remain
// options.
package llmprism

import (
	"context"
	"fmt"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/pool"
)

// Config collects the tuning knobs of all four analysis phases.
type Config struct {
	Recognition jobrec.Config
	Parallel    parallel.Config
	Timeline    timeline.Config
	Diagnosis   diagnose.Config
	// Localize enables root-cause localization: after diagnosis, the
	// window's alerts plus the flows' switch paths are converted into the
	// ranked Report.Suspects list. Localization runs once on the merged
	// report, so it adds no per-worker state.
	Localize bool
	// Localization carries the localizer's evidence filter and shard
	// count; its zero value is what WithLocalization runs.
	Localization localize.Config
	// Workers bounds the per-job fan-out of the analysis pipeline. Zero or
	// negative means GOMAXPROCS; 1 runs the pipeline sequentially.
	Workers int
}

// Option customizes an Analyzer.
type Option func(*Config)

// WithSigmaK sets the k of the k-sigma anomaly rule (default 3).
func WithSigmaK(k float64) Option {
	return func(c *Config) { c.Diagnosis.K = k }
}

// WithSwitchBucket sets the switch-level aggregation bucket width.
func WithSwitchBucket(d time.Duration) Option {
	return func(c *Config) { c.Diagnosis.Bucket = d }
}

// WithLossTolerantDiagnosis hardens the per-step detectors against
// collector record loss: DP-group durations aggregate member medians
// instead of means (a lost boundary record doubles one member's apparent
// step, and the mean inherits the artifact), and a rank or group must stay
// anomalous for at least persist steps within a window before its alerts
// surface. Real faults hold for the window; loss corrupts isolated steps.
// persist <= 1 keeps only the median hardening.
func WithLossTolerantDiagnosis(persist int) Option {
	return func(c *Config) {
		c.Diagnosis.GroupMedian = true
		c.Diagnosis.MinPersist = persist
	}
}

// WithSwitchTiers stratifies the switch-bandwidth peer comparison by the
// given tier classifier (e.g. leaf vs spine): switches are judged only
// against peers of their own tier, because the tiers carry structurally
// different per-flow bandwidth. The default compares all switches in one
// population.
func WithSwitchTiers(tier func(SwitchID) int) Option {
	return func(c *Config) { c.Diagnosis.SwitchTier = tier }
}

// WithGroupRails stratifies the cross-group peer comparison by the given
// rail classifier over DP-group anchor endpoints, the group-side mirror of
// WithSwitchTiers: groups are judged only against peers of their own rail
// class, because rails carry structurally different collective-segment
// durations (the trailing rail absorbs the collective's serialization tail
// every step, and pooling makes its groups fire chronic false alerts). The
// default compares all of a job's groups in one population.
func WithGroupRails(rail func(Addr) int) Option {
	return func(c *Config) { c.Diagnosis.GroupRail = rail }
}

// WithLocalization enables root-cause localization: every report gains a
// ranked Suspects list naming the switches, inter-switch links and host
// NICs most likely behind the window's alerts — at most 8 suspects, each
// scoring at least 0.02, with the bandwidth contrast clamped to [1/16, 16].
func WithLocalization() Option {
	return func(c *Config) { c.Localize = true }
}

// WithWorkers bounds the per-job fan-out of the analysis pipeline. Zero or
// negative means GOMAXPROCS (the default); 1 disables concurrency. The
// report is bit-identical for every worker count.
func WithWorkers(n int) Option {
	return func(c *Config) { c.Workers = n }
}

// WithConfig replaces the entire configuration.
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// Analyzer runs the four-phase pipeline. Construct with New.
type Analyzer struct {
	cfg Config
}

// New returns an Analyzer with the given options applied over defaults.
func New(opts ...Option) *Analyzer {
	var cfg Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return &Analyzer{cfg: cfg}
}

// JobReport is the analysis of one recognized training job.
type JobReport struct {
	// JobID is the stable cross-window identity the monitor's job registry
	// assigned by matching this window's endpoint set against previous
	// windows. It is 0 on reports produced outside the monitor.
	JobID jobrec.JobID
	// Cluster is the recognized job: endpoints and servers.
	Cluster jobrec.Cluster
	// Records are the job's flow records (sorted by start time). They are
	// materialized from the analysis frame: timestamps are normalized to
	// UTC, empty switch paths are nil, and the Switches slices alias the
	// window's shared interned path table — treat them as read-only.
	Records []flow.Record
	// Types classifies each communicating pair as PP or DP.
	Types map[flow.Pair]parallel.Type
	// DPGroups are the job's data-parallel groups (one per pipeline
	// stage and NIC rail).
	DPGroups [][]flow.Addr
	// StepsPerPair is a per-pair diagnostic from identification.
	StepsPerPair map[flow.Pair]int
	// Timelines maps each rank to its reconstructed timeline.
	Timelines map[flow.Addr]*timeline.Timeline
	// Alerts holds the job-scoped diagnosis results (cross-step and
	// cross-group).
	Alerts []diagnose.Alert
}

// Report is the full analysis of one flow window.
type Report struct {
	// Window locates the report on the monitor's window grid; it is the
	// zero value on reports produced by Analyze/AnalyzeFrame directly. A
	// completed window that held no records still yields a report — empty
	// but for these bounds — so window sequence numbers stay aligned with
	// wall-clock windows.
	Window WindowInfo
	// Jobs holds per-job analyses, ordered by smallest endpoint.
	Jobs []JobReport
	// SwitchSeries aggregates per-switch DP bandwidth/flow-count series
	// across all jobs (the paper's Fig. 5 view).
	SwitchSeries map[flow.SwitchID][]diagnose.SwitchPoint
	// SwitchAlerts holds switch-level diagnosis results.
	SwitchAlerts []diagnose.Alert
	// Incidents is the monitor's cross-window continuity view of this
	// window's alerts: one entry per ongoing anomaly (with first-seen time
	// and windows-firing count) plus one final entry for each anomaly that
	// just stopped firing. Nil outside the monitor.
	Incidents []diagnose.Incident
	// Suspects is the ranked root-cause localization of this window's
	// alerts — switches, inter-switch links and host NICs scored by
	// spectrum suspiciousness over alert-implicated vs healthy flows. Nil
	// unless the analyzer was built WithLocalization, or when no alert
	// fired. Inside the monitor each suspect also carries FirstSeen /
	// Windows / Fused continuity keyed on the component's physical
	// identity.
	Suspects []localize.Suspect
	// FusedSuspects is the monitor's incident-centric suspect view: the
	// cross-window fused ranking (per-component suspiciousness summed over
	// the windows of its run, one-window flaps tolerated) ordered by fused
	// score. Where Suspects answers "what does this window point at",
	// FusedSuspects answers "what does the incident so far point at" —
	// brief noise washes out, concurrent faults separate. Nil outside the
	// monitor or without WithLocalization.
	FusedSuspects []localize.Suspect
	// Coverage is the monitor's per-window collection-coverage signal,
	// stamped when the monitor runs WithCoverageGuard: the window's
	// observed flow volume against the rolling baseline of recent healthy
	// windows. On a degraded window (coverage collapsed — a collector
	// outage, a mirror blackout) the monitor withholds the window's alerts
	// and freezes the continuity trackers instead of letting thinned
	// evidence fire false diagnoses; Degraded says so. The zero value
	// means no coverage guard ran.
	Coverage Coverage
}

// Alerts returns every alert in the report (job-scoped then switch-level),
// nil when there are none.
func (r *Report) Alerts() []diagnose.Alert {
	n := len(r.SwitchAlerts)
	for _, j := range r.Jobs {
		n += len(j.Alerts)
	}
	if n == 0 {
		return nil
	}
	out := make([]diagnose.Alert, 0, n)
	for _, j := range r.Jobs {
		out = append(out, j.Alerts...)
	}
	return append(out, r.SwitchAlerts...)
}

// Analyze runs the full pipeline over one window of flow records. mapper
// resolves endpoints to servers (a *topology.Topology satisfies it).
// records need not be sorted; they are not modified (the window is loaded
// into a columnar frame, and the report's JobReport.Records are
// re-materialized from it rather than aliased from the input — see the
// field's doc for the normalization that implies). Analyze is
// AnalyzeContext with a background context.
func (a *Analyzer) Analyze(records []flow.Record, mapper jobrec.ServerMapper) (*Report, error) {
	return a.AnalyzeContext(context.Background(), records, mapper)
}

// AnalyzeFrame runs the full pipeline over an already-built columnar frame.
// It is AnalyzeFrameContext with a background context.
func (a *Analyzer) AnalyzeFrame(f *flow.Frame, mapper jobrec.ServerMapper) (*Report, error) {
	return a.AnalyzeFrameContext(context.Background(), f, mapper)
}

// jobAnalysis is one worker's output: the job's report plus its private
// partial switch aggregation, merged later in job order.
type jobAnalysis struct {
	report JobReport
	series *diagnose.SeriesAccum
}

// AnalyzeContext runs the full pipeline over one window of flow records.
// It is a thin adapter over AnalyzeFrameContext: the window is loaded once
// into a columnar flow.Frame (which also establishes the canonical sort
// order, so no separate sorted copy is made) and analyzed from there. The
// frame build runs at the analyzer's worker count — byte-identical to the
// serial build for every count — so the sort is not a serial prefix on the
// multi-worker critical path.
func (a *Analyzer) AnalyzeContext(ctx context.Context, records []flow.Record, mapper jobrec.ServerMapper) (*Report, error) {
	return a.AnalyzeFrameContext(ctx, flow.NewFrameParallel(records, a.cfg.Workers), mapper)
}

// AnalyzeFrameContext runs the full pipeline over one columnar frame,
// fanning the per-job identify → timeline → diagnose chains out to a
// worker pool of Config.Workers goroutines (default GOMAXPROCS). Each
// worker receives a zero-copy view of its job's rows (pair spans plus a
// start-ordered row permutation) rather than a filtered record slice. Job
// reports are merged back in smallest-endpoint order and the switch-level
// series is built from per-job partial aggregations merged in that same
// order, so the report is bit-identical for every worker count. ctx
// cancellation aborts between pipeline phases and returns ctx.Err().
func (a *Analyzer) AnalyzeFrameContext(ctx context.Context, f *flow.Frame, mapper jobrec.ServerMapper) (*Report, error) {
	if f == nil || f.Len() == 0 {
		return nil, fmt.Errorf("llmprism: no flow records to analyze")
	}
	if mapper == nil {
		return nil, fmt.Errorf("llmprism: nil server mapper")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Recognition is a single cheap DSU pass over the pair index; the
	// expensive phases below are per-job and embarrassingly parallel.
	clusters := jobrec.RecognizeFrame(f, mapper, a.cfg.Recognition)
	views := jobrec.SelectJobs(f, clusters)
	// Reconstruction reuses identification's per-pair segments only when
	// both stages split with the same settings (detector pools never change
	// a split). Every shipped caller leaves both at zero; WithConfig can
	// make them differ.
	ps, ts := a.cfg.Parallel.Split, a.cfg.Timeline.Split
	ps.Detectors, ts.Detectors = nil, nil
	reuseSegments := ps == ts

	analyses, err := pool.Map(ctx, a.cfg.Workers, clusters,
		func(ctx context.Context, i int, cluster jobrec.Cluster) (jobAnalysis, error) {
			v := views[i]
			cls := parallel.IdentifyView(v, a.cfg.Parallel)
			if err := ctx.Err(); err != nil {
				return jobAnalysis{}, err
			}
			tcls := cls
			if !reuseSegments {
				tcls.Segments = nil
			}
			tls := timeline.ReconstructClassified(v, tcls, a.cfg.Timeline)
			if err := ctx.Err(); err != nil {
				return jobAnalysis{}, err
			}
			var alerts []diagnose.Alert
			alerts = append(alerts, diagnose.CrossStep(tls, a.cfg.Diagnosis)...)
			alerts = append(alerts, diagnose.CrossGroup(tls, cls.DPGroups, a.cfg.Diagnosis)...)

			series := diagnose.NewSeriesAccum(a.cfg.Diagnosis)
			series.AddView(v, cls.Types)
			return jobAnalysis{
				report: JobReport{
					Cluster:      cluster,
					Records:      v.Records(),
					Types:        cls.Types,
					DPGroups:     cls.DPGroups,
					StepsPerPair: cls.StepsPerPair,
					Timelines:    tls,
					Alerts:       alerts,
				},
				series: series,
			}, nil
		})
	if err != nil {
		return nil, err
	}

	// Merge in cluster order — RecognizeFrame sorts clusters by smallest
	// endpoint, which both orders Report.Jobs and fixes the float
	// summation order of the switch series.
	report := &Report{}
	merged := diagnose.NewSeriesAccum(a.cfg.Diagnosis)
	for _, ja := range analyses {
		report.Jobs = append(report.Jobs, ja.report)
		merged.Merge(ja.series)
	}
	report.SwitchSeries = merged.Series()
	report.SwitchAlerts = diagnose.SwitchDiagnose(report.SwitchSeries, a.cfg.Diagnosis)
	if a.cfg.Localize {
		report.Suspects = localizeReport(report, a.cfg.Localization)
	}
	return report, nil
}

// localizeReport runs root-cause localization over the merged report. It
// executes on the in-order merge path (never inside the per-job fan-out),
// visiting jobs in report order, which is what keeps the suspect list
// bit-identical for every worker count. Job IDs are forwarded for the
// evidence filter; they are zero outside the monitor's annotate path.
func localizeReport(r *Report, cfg localize.Config) []localize.Suspect {
	jobs := make([]localize.Job, len(r.Jobs))
	for i, jr := range r.Jobs {
		jobs[i] = localize.Job{
			ID:       int(jr.JobID),
			Records:  jr.Records,
			Types:    jr.Types,
			DPGroups: jr.DPGroups,
			Alerts:   jr.Alerts,
		}
	}
	return localize.Localize(jobs, r.SwitchAlerts, cfg)
}
