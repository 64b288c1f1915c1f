// Package testbed is the reproduction's stand-in for a production
// platform: a full platform simulator (Simulate) in place of a multi-tenant
// GPU cluster — topology, 3D-parallel training jobs, a fluid network model,
// ERSPAN-style flow collection with its noise, and fault injection — plus
// the ground-truth scoring that grades an analysis against what was
// simulated. It is everything needed to reproduce the paper's evaluation
// end to end, and nothing the diagnosis itself needs: the root llmprism
// package takes flow records in and never imports this one.
//
//	res, err := testbed.Simulate(scenario)
//	report, err := llmprism.New().Analyze(res.Records, res.Topo)
//	score := testbed.ScoreRecognition(clusters, res.Truth.Jobs)
//
// The viz package renders the paper's figures from the same results.
package testbed

import (
	"time"

	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/erspan"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/model"
	"github.com/llmprism/llmprism/internal/netsim"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/internal/trainsim"
	"github.com/llmprism/llmprism/internal/truth"
)

type (
	// Scenario specifies a platform simulation.
	Scenario = platform.Scenario
	// SimResult is the output of Simulate.
	SimResult = platform.Result
	// JobPlan is a compact tenant-job request for PlanJobs.
	JobPlan = platform.JobPlan
	// JobConfig fully describes a simulated training job.
	JobConfig = trainsim.JobConfig
	// CommStyle selects ZeRO or all-reduce data parallelism.
	CommStyle = trainsim.CommStyle
	// ModelSpec describes a transformer model.
	ModelSpec = model.Spec
	// NetConfig configures the fluid network simulator.
	NetConfig = netsim.Config
	// FaultSchedule is a set of injected anomalies.
	FaultSchedule = faults.Schedule
	// Fault is one injected anomaly.
	Fault = faults.Fault
	// CollectorConfig parameterizes the simulated collection pipeline's
	// noise (Scenario.Collector): loss, duplication, jitter, aggregation
	// and per-switch mirror blackouts.
	CollectorConfig = erspan.Config
	// CollectorBlackout is one switch mirror outage in a CollectorConfig.
	CollectorBlackout = erspan.Blackout
	// GroundTruth is the simulation's reference record for scoring.
	GroundTruth = truth.Platform

	// TruthJob is one job's ground truth from a simulation.
	TruthJob = truth.Job
	// RecognitionScore scores job recognition.
	RecognitionScore = truth.RecognitionScore
	// TimelineScore scores timeline reconstruction.
	TimelineScore = truth.TimelineScore
)

const (
	StyleZeRO      = trainsim.StyleZeRO
	StyleAllReduce = trainsim.StyleAllReduce

	FaultSwitchDegrade = faults.KindSwitchDegrade
	FaultLinkDegrade   = faults.KindLinkDegrade
	FaultRankSlowdown  = faults.KindRankSlowdown
)

// Predefined model specs (LLaMA-family sizes).
var (
	Llama7B  = model.Llama7B
	Llama13B = model.Llama13B
	Llama33B = model.Llama33B
	Llama70B = model.Llama70B
)

// Simulate runs a platform scenario and returns flows plus ground truth.
func Simulate(s Scenario) (*SimResult, error) { return platform.Run(s) }

// PlanJobs expands compact job plans into validated job configs.
func PlanJobs(spec topology.Spec, plans []JobPlan, seed int64) ([]JobConfig, error) {
	return platform.PlanJobs(spec, plans, seed)
}

// ScoreRecognition compares predicted clusters against true jobs.
func ScoreRecognition(predicted [][]flow.Addr, jobs []TruthJob) RecognitionScore {
	return truth.ScoreRecognition(predicted, jobs)
}

// ScoreTimelines compares reconstructed step boundaries of one job's
// timelines against its ground truth.
func ScoreTimelines(tls map[flow.Addr]*timeline.Timeline, epoch time.Time, job TruthJob) TimelineScore {
	return truth.ScoreTimeline(tls, epoch, job)
}

// CrossMachineClusters exposes phase 1 of job recognition on its own: the
// pre-topology-merge clusters (the paper's Fig. 3 middle panel).
func CrossMachineClusters(records []flow.Record) [][]flow.Addr {
	return jobrec.CrossMachineClustersFrame(flow.NewFrame(records))
}

// MeanStepDuration reports the mean reconstructed step duration of a
// timeline (0 if it has fewer than two steps).
func MeanStepDuration(tl *timeline.Timeline) time.Duration {
	return timeline.MeanStepDuration(tl)
}
