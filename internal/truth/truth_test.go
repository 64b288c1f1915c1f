package truth

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
)

func TestPairTypeString(t *testing.T) {
	if PairPP.String() != "PP" || PairDP.String() != "DP" || PairType(9).String() == "" {
		t.Error("PairType.String labels wrong")
	}
}

func TestSpanDuration(t *testing.T) {
	s := Span{Step: 1, Start: time.Second, End: 3 * time.Second}
	if s.Duration() != 2*time.Second {
		t.Errorf("Duration = %v, want 2s", s.Duration())
	}
}

func twoJobs() []Job {
	return []Job{
		{ID: 1, Addrs: []flow.Addr{1, 2, 3, 4}},
		{ID: 2, Addrs: []flow.Addr{10, 11}},
	}
}

func TestScoreRecognitionPerfect(t *testing.T) {
	predicted := [][]flow.Addr{{4, 3, 2, 1}, {11, 10}}
	score := ScoreRecognition(predicted, twoJobs())
	if !score.Perfect() || score.ExactMatches != 2 {
		t.Errorf("score = %+v, want perfect", score)
	}
}

func TestScoreRecognitionPartial(t *testing.T) {
	// First cluster is missing an endpoint; second matches.
	predicted := [][]flow.Addr{{1, 2, 3}, {10, 11}}
	score := ScoreRecognition(predicted, twoJobs())
	if score.Perfect() || score.ExactMatches != 1 {
		t.Errorf("score = %+v, want 1 exact match and not perfect", score)
	}
	// A merged cluster matches nothing.
	merged := [][]flow.Addr{{1, 2, 3, 4, 10, 11}}
	score = ScoreRecognition(merged, twoJobs())
	if score.ExactMatches != 0 {
		t.Errorf("merged cluster matched: %+v", score)
	}
}

func TestScorePairs(t *testing.T) {
	job := Job{Pairs: map[flow.Pair]PairType{
		flow.MakePair(1, 2): PairDP,
		flow.MakePair(2, 3): PairPP,
		flow.MakePair(3, 4): PairDP,
	}}
	predicted := map[flow.Pair]PairType{
		flow.MakePair(1, 2): PairDP,
		flow.MakePair(2, 3): PairDP, // wrong
	}
	score := ScorePairs(predicted, job)
	if score.Total != 2 || score.Correct != 1 || score.MissingFromPrediction != 1 {
		t.Errorf("score = %+v, want total 2 correct 1 missing 1", score)
	}
	if acc := score.Accuracy(); acc != 0.5 {
		t.Errorf("accuracy = %v, want 0.5", acc)
	}
	if (PairScore{}).Accuracy() != 1 {
		t.Error("empty score should have accuracy 1")
	}
}

func TestScoreTimeline(t *testing.T) {
	job := Job{Steps: map[flow.Addr][]Span{
		1: {
			{Step: 0, Start: 0, End: 10 * time.Second},
			{Step: 1, Start: 10 * time.Second, End: 20 * time.Second},
		},
	}}
	tls := map[flow.Addr]*timeline.Timeline{
		1: stepsEndingAt(10*time.Second+20*time.Millisecond, 20*time.Second-10*time.Millisecond),
	}
	score := ScoreTimeline(tls, scoreEpoch, job)
	if score.MatchedSteps != 2 {
		t.Fatalf("matched = %d, want 2", score.MatchedSteps)
	}
	// Errors: 20ms/10s = 0.2% and 10ms/10s = 0.1% → mean 0.15%, max 0.2%.
	if score.MeanRelError < 0.0014 || score.MeanRelError > 0.0016 {
		t.Errorf("mean error = %v, want ≈ 0.0015", score.MeanRelError)
	}
	if score.MaxRelError < 0.0019 || score.MaxRelError > 0.0021 {
		t.Errorf("max error = %v, want ≈ 0.002", score.MaxRelError)
	}
}

func TestScoreTimelineSkipsFarBoundaries(t *testing.T) {
	job := Job{Steps: map[flow.Addr][]Span{
		1: {{Step: 0, Start: 0, End: 10 * time.Second}},
	}}
	// Nearest reconstructed end is 8s away — more than half a step.
	tls := map[flow.Addr]*timeline.Timeline{1: stepsEndingAt(18 * time.Second)}
	score := ScoreTimeline(tls, scoreEpoch, job)
	if score.MatchedSteps != 0 {
		t.Errorf("far boundary should not match: %+v", score)
	}
}

// A rank with no timeline, or with a timeline but no steps, is skipped.
func TestScoreTimelineMissingRank(t *testing.T) {
	job := Job{Steps: map[flow.Addr][]Span{
		1: {{Step: 0, Start: 0, End: 10 * time.Second}},
		2: {{Step: 0, Start: 0, End: 10 * time.Second}},
	}}
	tls := map[flow.Addr]*timeline.Timeline{2: {Rank: 2}}
	score := ScoreTimeline(tls, scoreEpoch, job)
	if score.MatchedSteps != 0 || score.MeanRelError != 0 {
		t.Errorf("missing rank should score zero: %+v", score)
	}
}

var scoreEpoch = time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)

// stepsEndingAt builds a timeline whose steps end at the given offsets
// from scoreEpoch.
func stepsEndingAt(ends ...time.Duration) *timeline.Timeline {
	tl := &timeline.Timeline{}
	for _, e := range ends {
		tl.Steps = append(tl.Steps, timeline.Step{End: scoreEpoch.Add(e)})
	}
	return tl
}
