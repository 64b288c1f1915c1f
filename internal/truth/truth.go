// Package truth holds the ground-truth records a platform simulation emits
// alongside its flow trace, plus the scoring used by the experiments.
//
// It substitutes for the paper's evaluation references: tenant-provided job
// configurations (job membership, parallelism strategy) and PyTorch
// Profiler timelines (true step boundaries). The analysis pipeline never
// sees this package's data — only the experiment harness does, to score the
// reconstruction.
package truth

import (
	"fmt"
	"math"
	"time"

	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
)

// PairType is the true communication type of an endpoint pair.
type PairType uint8

// Pair types.
const (
	PairPP PairType = iota + 1
	PairDP
)

func (p PairType) String() string {
	switch p {
	case PairPP:
		return "PP"
	case PairDP:
		return "DP"
	default:
		return fmt.Sprintf("PairType(%d)", uint8(p))
	}
}

// Span is one training step's true time extent on one rank.
type Span struct {
	Step       int
	Start, End time.Duration
}

// Duration returns the span length.
func (s Span) Duration() time.Duration { return s.End - s.Start }

// Job is the ground truth for one training job.
type Job struct {
	ID         int
	Name       string
	TP, PP, DP int
	// Addrs lists every rank's NIC address.
	Addrs []flow.Addr
	// Pairs maps each cross-node communicating pair to its true type.
	Pairs map[flow.Pair]PairType
	// Steps maps each rank to its true step spans, in step order.
	Steps map[flow.Addr][]Span
}

// Platform is the full ground truth of one simulated trace.
type Platform struct {
	// Epoch anchors simulation time offsets to wall-clock flow timestamps.
	Epoch time.Time
	Jobs  []Job
}

// RecognitionScore compares predicted job clusters against the true jobs.
type RecognitionScore struct {
	// TrueJobs is the number of ground-truth jobs.
	TrueJobs int
	// PredictedClusters is the number of clusters the recognizer output.
	PredictedClusters int
	// ExactMatches counts true jobs whose full address set equals one
	// predicted cluster exactly.
	ExactMatches int
}

// Perfect reports whether recognition recovered every job exactly with no
// spurious clusters.
func (s RecognitionScore) Perfect() bool {
	return s.ExactMatches == s.TrueJobs && s.PredictedClusters == s.TrueJobs
}

// ScoreRecognition scores predicted clusters (each a set of addresses)
// against the platform ground truth. Only jobs with at least one observed
// member are expected; callers pass the truth restricted to the window if
// needed.
func ScoreRecognition(predicted [][]flow.Addr, jobs []Job) RecognitionScore {
	score := RecognitionScore{
		TrueJobs:          len(jobs),
		PredictedClusters: len(predicted),
	}
	predSets := make([]map[flow.Addr]struct{}, len(predicted))
	for i, cluster := range predicted {
		predSets[i] = make(map[flow.Addr]struct{}, len(cluster))
		for _, a := range cluster {
			predSets[i][a] = struct{}{}
		}
	}
	for _, job := range jobs {
		for _, set := range predSets {
			if len(set) != len(job.Addrs) {
				continue
			}
			match := true
			for _, a := range job.Addrs {
				if _, ok := set[a]; !ok {
					match = false
					break
				}
			}
			if match {
				score.ExactMatches++
				break
			}
		}
	}
	return score
}

// PairScore is the result of scoring pair-type classification.
type PairScore struct {
	// Correct and Total count evaluated pairs (pairs present in both the
	// prediction and the truth).
	Correct, Total int
	// MissingFromPrediction counts true pairs the classifier never saw
	// (no flows in the window).
	MissingFromPrediction int
}

// Accuracy returns Correct/Total (1 when no pairs were evaluated).
func (s PairScore) Accuracy() float64 {
	if s.Total == 0 {
		return 1
	}
	return float64(s.Correct) / float64(s.Total)
}

// ScorePairs compares predicted pair types against the true types of one
// job.
func ScorePairs(predicted map[flow.Pair]PairType, job Job) PairScore {
	var score PairScore
	for pair, want := range job.Pairs {
		got, ok := predicted[pair]
		if !ok {
			score.MissingFromPrediction++
			continue
		}
		score.Total++
		if got == want {
			score.Correct++
		}
	}
	return score
}

// TimelineScore summarizes reconstruction error against true step spans.
type TimelineScore struct {
	// MatchedSteps counts (rank, step) pairs with both a true span and a
	// reconstructed boundary.
	MatchedSteps int
	// MeanRelError is the mean of |reconstructed end − true end| / true
	// step duration over matched steps.
	MeanRelError float64
	// MaxRelError is the maximum relative error observed.
	MaxRelError float64
}

// ScoreTimeline scores one job's reconstructed timelines against the
// truth, with each step end taken as an offset from epoch. For each true
// span, the nearest reconstructed end is matched if it falls within half a
// step of the true end; the relative error is the offset divided by the
// true step duration, matching the paper's "reconstruction error within
// 0.3%" metric (§V-C). Ranks without a timeline or without steps are
// skipped.
func ScoreTimeline(tls map[flow.Addr]*timeline.Timeline, epoch time.Time, job Job) TimelineScore {
	var score TimelineScore
	var sum float64
	for addr, spans := range job.Steps {
		tl := tls[addr]
		if tl == nil || len(tl.Steps) == 0 {
			continue
		}
		for _, span := range spans {
			best := time.Duration(math.MaxInt64)
			for _, st := range tl.Steps {
				if d := absDur(st.End.Sub(epoch) - span.End); d < best {
					best = d
				}
			}
			if span.Duration() <= 0 || best > span.Duration()/2 {
				continue
			}
			rel := float64(best) / float64(span.Duration())
			sum += rel
			if rel > score.MaxRelError {
				score.MaxRelError = rel
			}
			score.MatchedSteps++
		}
	}
	if score.MatchedSteps > 0 {
		score.MeanRelError = sum / float64(score.MatchedSteps)
	}
	return score
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
