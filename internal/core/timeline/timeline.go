// Package timeline reconstructs per-GPU training timelines from classified
// network flows (§IV-C of the LLMPrism paper).
//
// Every training step concludes with a burst of data-parallel collective
// traffic, whatever compute/communication overlap optimizations the tenant
// uses. The reconstructor therefore divides each rank's DP flows into steps
// with the same BOCD splitter used for classification; the end of a step's
// DP segment marks the end of the step, and the gaps between a step's
// communication events approximate compute. When a rank's DP flows are all
// one pair's flows (every rank of a two-member DP group), that sequence is
// the one identification already split, so ReconstructClassified takes the
// pair's segments from the classification instead of splitting it again;
// every other rank is split here. A Timeline keeps the steps and
// a count of the PP and DP flows that start in each, not the flows
// themselves: the job's records already hold those, and a renderer that
// wants them (viz.TimelineSwimlanes) reads them from there.
package timeline

import (
	"slices"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// Step is one reconstructed training step on a rank.
type Step struct {
	// Index numbers steps within the analysis window, starting at 0.
	// (The absolute step counter of the job is not observable.)
	Index int
	// Start is the step's begin time: the end of the previous step, or
	// the first observed event for the window's first step.
	Start time.Time
	// End is the reconstructed step end: the conclusion of the step's DP
	// traffic.
	End time.Time
	// DPStart and DPEnd delimit the step's DP collective segment.
	DPStart, DPEnd time.Time
	// Events counts the rank's communication events (PP and DP flows it
	// sends or receives) that start in [Start, End).
	Events int
}

// Duration returns the step length.
func (s Step) Duration() time.Duration { return s.End.Sub(s.Start) }

// DPDuration returns the length of the DP segment.
func (s Step) DPDuration() time.Duration { return s.DPEnd.Sub(s.DPStart) }

// Timeline is the reconstructed schedule of one GPU rank. Its size depends
// on the number of steps, not on the number of flows.
type Timeline struct {
	Rank flow.Addr
	// Steps lists reconstructed steps. The window's leading partial step
	// (before the first complete DP boundary) is included as step 0 when
	// it contains DP traffic.
	Steps []Step
}

// Config tunes reconstruction.
type Config struct {
	// Split carries the detector pool the BOCD step division over DP flows
	// draws from. The splitter has no settings; the field remains for
	// bench/shadow.go until ROADMAP item 1(b).
	Split bocd.SplitConfig
}

// minDPFlows is the minimum number of DP flows a rank needs for step
// reconstruction.
const minDPFlows = 4

// ReconstructView builds timelines for every rank of one job's frame view;
// types is the pair classification from package parallel. It is
// ReconstructClassified over a classification without segments, so every
// rank's DP flows are split here.
func ReconstructView(v flow.View, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	return ReconstructClassified(v, parallel.Classification{Types: types}, cfg)
}

// ReconstructClassified builds timelines for every rank of one job's frame
// view from cls, the view's classification from package parallel. Every
// rank that sends or receives a flow gets a timeline, with no steps when it
// has fewer than minDPFlows DP flows. A rank whose DP flows all belong to
// one pair P takes its segments from cls.Segments[P] when that entry is
// present; every other rank splits its DP flows here. The reused segments
// are only right when cls came from parallel.IdentifyView over the same
// view: the rank's DP starts are then exactly the start times
// identification split for P, and the splitter depends on nothing else.
//
// It sizes every rank's buffers from the view's pair spans, then streams
// the view's rows once, in start order, filling each endpoint's flow
// starts and DP start/end times; the starts are therefore already
// ascending. Nothing proportional to the rows outlives the call. It is the
// only reconstruction core; oracle_test.go keeps the record-slice
// Reconstruct it is tested against.
func ReconstructClassified(v flow.View, cls parallel.Classification, cfg Config) map[flow.Addr]*Timeline {
	f := v.Frame()

	// One build per rank, indexed in first-seen order. dpPair is the view
	// pair index of the rank's only DP pair, noDP before it has one and
	// manyDP once it has two.
	const noDP, manyDP = -1, -2
	type rankBuild struct {
		rank     flow.Addr
		n, dp    int
		dpPair   int
		starts   []int64
		dpStarts []time.Time
		dpEnds   []int64
	}
	var builds []rankBuild
	rankOf := make(map[flow.Addr]int32)
	index := func(a flow.Addr) int32 {
		i, ok := rankOf[a]
		if !ok {
			i = int32(len(builds))
			rankOf[a] = i
			builds = append(builds, rankBuild{rank: a, dpPair: noDP})
		}
		return i
	}
	// Resolve each view pair's endpoints and type once. A view holds whole
	// pair spans, so the span lengths size every rank's buffers exactly.
	type pairInfo struct {
		a, b int32 // equal for a self-pair
		dp   bool
	}
	pairs := make([]pairInfo, v.NumPairs())
	var total, totalDP int
	for i := range pairs {
		p := v.PairAt(i)
		lo, hi := v.PairSpan(i)
		pi := pairInfo{a: index(p.A), b: index(p.B), dp: cls.Types[p] == parallel.TypeDP}
		pairs[i] = pi
		for _, r := range [2]int32{pi.a, pi.b} {
			b := &builds[r]
			b.n += hi - lo
			total += hi - lo
			if pi.dp {
				b.dp += hi - lo
				totalDP += hi - lo
				if b.dpPair == noDP {
					b.dpPair = i
				} else {
					b.dpPair = manyDP
				}
			}
			if pi.b == pi.a {
				break
			}
		}
	}

	// Carve every rank's exactly-sized buffers out of one backing array each.
	starts := make([]int64, total)
	dpStarts := make([]time.Time, totalDP)
	dpEnds := make([]int64, totalDP)
	for i := range builds {
		b := &builds[i]
		b.starts, starts = starts[:0:b.n], starts[b.n:]
		b.dpStarts, dpStarts = dpStarts[:0:b.dp], dpStarts[b.dp:]
		b.dpEnds, dpEnds = dpEnds[:0:b.dp], dpEnds[b.dp:]
	}

	rowPairs := v.RowPairs()
	for i, ri := range v.Rows() {
		r := int(ri)
		pi := pairs[rowPairs[i]]
		start := f.StartNanos(r)
		for _, k := range [2]int32{pi.a, pi.b} {
			b := &builds[k]
			b.starts = append(b.starts, start)
			if pi.dp {
				b.dpStarts = append(b.dpStarts, f.Start(r))
				b.dpEnds = append(b.dpEnds, start+int64(f.Duration(r)))
			}
			if pi.b == pi.a {
				break
			}
		}
	}

	tls := make([]Timeline, len(builds))
	out := make(map[flow.Addr]*Timeline, len(builds))
	for i := range builds {
		b := &builds[i]
		var segments []bocd.Segment
		if b.dpPair >= 0 {
			segments = cls.Segments[v.PairAt(b.dpPair)]
		}
		tls[i] = Timeline{Rank: b.rank, Steps: reconstructSteps(b.starts, b.dpStarts, b.dpEnds, segments, cfg)}
		out[b.rank] = &tls[i]
	}
	return out
}

// reconstructSteps is the shared step-division core. starts holds the Unix
// nanosecond start of every one of the rank's flows, ascending; dpStarts
// and dpEnds hold the start time and Unix nanosecond end of its DP flows,
// in flow order. segments, when non-nil, is the split of dpStarts already
// computed elsewhere; nil splits dpStarts here. It returns the
// reconstructed steps, nil below minDPFlows. Step times are UTC, as
// flow.Frame materializes its timestamps.
func reconstructSteps(starts []int64, dpStarts []time.Time, dpEnds []int64, segments []bocd.Segment, cfg Config) []Step {
	if len(dpStarts) < minDPFlows {
		return nil
	}
	if segments == nil {
		segments = bocd.SplitTimes(dpStarts, cfg.Split)
	}
	steps := make([]Step, 0, len(segments))
	prevEnd := starts[0] // the DP flows are among starts, so it is not empty
	for i, seg := range segments {
		dpEnd := dpEnds[seg.Lo]
		for _, e := range dpEnds[seg.Lo+1 : seg.Hi] {
			dpEnd = max(dpEnd, e)
		}
		end := time.Unix(0, dpEnd).UTC()
		steps = append(steps, Step{
			Index:   i,
			Start:   time.Unix(0, prevEnd).UTC(),
			End:     end,
			DPStart: dpStarts[seg.Lo],
			DPEnd:   end,
			Events:  countIn(starts, prevEnd, dpEnd),
		})
		prevEnd = dpEnd
	}
	return steps
}

// countIn returns how many of the ascending starts lie in [from, to); a
// reversed interval counts zero.
func countIn(starts []int64, from, to int64) int {
	lo, _ := slices.BinarySearch(starts, from)
	hi, _ := slices.BinarySearch(starts, to)
	return max(hi-lo, 0)
}

// MeanStepDuration returns the mean of complete step durations across the
// timeline, skipping the window-truncated first step.
func MeanStepDuration(tl *Timeline) time.Duration {
	if len(tl.Steps) <= 1 {
		return 0
	}
	var sum time.Duration
	for _, s := range tl.Steps[1:] {
		sum += s.Duration()
	}
	return sum / time.Duration(len(tl.Steps)-1)
}
