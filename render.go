package llmprism

import (
	"time"

	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/truth"
	"github.com/llmprism/llmprism/internal/viz"
)

// Rendering and scoring helpers re-exported for library users and the
// examples; implementations live in internal/viz and internal/truth.

// RenderClusterGrid draws the Fig. 3-style cluster view: one row per
// server, one column per GPU, one glyph per cluster.
func RenderClusterGrid(topo *Topology, clusters [][]Addr) string {
	return viz.ClusterGrid(topo, clusters)
}

// RenderJobGrid is RenderClusterGrid for recognized job clusters.
func RenderJobGrid(topo *Topology, jobs []JobCluster) string {
	return viz.JobClusterGrid(topo, jobs)
}

// RenderTimelines draws Fig. 4-style per-rank swimlanes of one job over
// [from, to): the job's records, typed by its pair classification, with
// its reconstructed step ends. Ranks without a timeline are skipped.
func RenderTimelines(job JobReport, ranks []Addr, from, to time.Time, width int) string {
	return viz.TimelineSwimlanes(job.Records, job.Types, job.Timelines, ranks, from, to, width)
}

// RenderSwitchSeries draws the Fig. 5-style per-switch DP bandwidth table.
// name may be nil to use raw switch ids.
func RenderSwitchSeries(series map[SwitchID][]SwitchPoint, name func(SwitchID) string) string {
	return viz.BandwidthSeries(series, name)
}

// RenderAlerts lists alerts one per line, sorted by time; alerts that share
// a time keep their input order.
func RenderAlerts(alerts []Alert) string { return viz.AlertList(alerts) }

// CrossMachineClusters exposes phase 1 of job recognition on its own: the
// pre-topology-merge clusters (the paper's Fig. 3 middle panel).
func CrossMachineClusters(records []FlowRecord) [][]Addr {
	return jobrec.CrossMachineClustersFrame(flow.NewFrame(records))
}

// Ground-truth scoring re-exports, for evaluating an analysis against a
// simulation's known configuration.
type (
	// TruthJob is one job's ground truth from a simulation.
	TruthJob = truth.Job
	// RecognitionScore scores job recognition.
	RecognitionScore = truth.RecognitionScore
	// TimelineScore scores timeline reconstruction.
	TimelineScore = truth.TimelineScore
)

// ScoreRecognition compares predicted clusters against true jobs.
func ScoreRecognition(predicted [][]Addr, jobs []TruthJob) RecognitionScore {
	return truth.ScoreRecognition(predicted, jobs)
}

// ScoreTimelines compares reconstructed step boundaries of one job's
// timelines against its ground truth.
func ScoreTimelines(tls map[Addr]*Timeline, epoch time.Time, job TruthJob) TimelineScore {
	return truth.ScoreTimeline(timeline.AllStepEnds(tls, epoch), job)
}

// MeanStepDuration reports the mean reconstructed step duration of a
// timeline (0 if it has fewer than two steps).
func MeanStepDuration(tl *Timeline) time.Duration {
	return timeline.MeanStepDuration(tl)
}
