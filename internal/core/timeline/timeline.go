// Package timeline reconstructs per-GPU training timelines from classified
// network flows (§IV-C of the LLMPrism paper).
//
// Every training step concludes with a burst of data-parallel collective
// traffic, whatever compute/communication overlap optimizations the tenant
// uses. The reconstructor therefore divides each rank's DP flows into steps
// with the same BOCD splitter used for classification; the end of a step's
// DP segment marks the end of the step, and the gaps between a step's
// communication events approximate compute. A Timeline keeps the steps and
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
	// Split configures the BOCD step division over DP flows.
	Split bocd.SplitConfig
	// MinDPFlows is the minimum number of DP flows a rank needs for
	// step reconstruction. Default 4.
	MinDPFlows int
}

func (c Config) withDefaults() Config {
	if c.MinDPFlows <= 0 {
		c.MinDPFlows = 4
	}
	return c
}

// Reconstruct builds timelines for every rank of one job. records must be
// the job's flows sorted by start time; types is the pair classification
// from package parallel. Every rank that sends or receives a flow gets a
// timeline, with no steps when it has fewer than MinDPFlows DP flows.
func Reconstruct(records []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	cfg = cfg.withDefaults()
	perRank := flow.ByEndpoint(records)
	out := make(map[flow.Addr]*Timeline, len(perRank))
	for rank, recs := range perRank {
		out[rank] = reconstructRank(rank, recs, types, cfg)
	}
	return out
}

// ReconstructView is Reconstruct over one job's frame view, bit-identical
// to it on the equivalent record slice. It sizes every rank's buffers from
// the view's pair spans, then streams the view's rows once, in start order,
// filling each endpoint's flow starts and DP start/end times; the starts
// are therefore already ascending. Nothing proportional to the rows outlives
// the call.
func ReconstructView(v flow.View, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	cfg = cfg.withDefaults()
	f := v.Frame()

	// One build per rank, indexed in first-seen order.
	type rankBuild struct {
		rank     flow.Addr
		n, dp    int
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
			builds = append(builds, rankBuild{rank: a})
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
		pi := pairInfo{a: index(p.A), b: index(p.B), dp: types[p] == parallel.TypeDP}
		pairs[i] = pi
		for _, r := range [2]int32{pi.a, pi.b} {
			builds[r].n += hi - lo
			total += hi - lo
			if pi.dp {
				builds[r].dp += hi - lo
				totalDP += hi - lo
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
		tls[i] = Timeline{Rank: b.rank, Steps: reconstructSteps(b.starts, b.dpStarts, b.dpEnds, cfg)}
		out[b.rank] = &tls[i]
	}
	return out
}

func reconstructRank(rank flow.Addr, recs []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) *Timeline {
	starts := make([]int64, len(recs))
	var dpStarts []time.Time
	var dpEnds []int64
	for i, r := range recs {
		starts[i] = r.Start.UnixNano()
		if types[r.Pair()] == parallel.TypeDP {
			dpStarts = append(dpStarts, r.Start)
			dpEnds = append(dpEnds, r.End().UnixNano())
		}
	}
	return &Timeline{Rank: rank, Steps: reconstructSteps(starts, dpStarts, dpEnds, cfg)}
}

// reconstructSteps is the shared step-division core. starts holds the Unix
// nanosecond start of every one of the rank's flows, ascending; dpStarts
// and dpEnds hold the start time and Unix nanosecond end of its DP flows,
// in flow order. It returns the reconstructed steps, nil below MinDPFlows.
// Step times are UTC, as flow.Frame materializes its timestamps.
func reconstructSteps(starts []int64, dpStarts []time.Time, dpEnds []int64, cfg Config) []Step {
	if len(dpStarts) < cfg.MinDPFlows {
		return nil
	}
	segments := bocd.SplitTimes(dpStarts, cfg.Split)
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

// StepEnds returns the reconstructed step end offsets of one timeline
// relative to epoch, for scoring against ground truth.
func StepEnds(tl *Timeline, epoch time.Time) []time.Duration {
	out := make([]time.Duration, len(tl.Steps))
	for i, s := range tl.Steps {
		out[i] = s.End.Sub(epoch)
	}
	return out
}

// AllStepEnds maps every rank to its reconstructed step end offsets.
func AllStepEnds(timelines map[flow.Addr]*Timeline, epoch time.Time) map[flow.Addr][]time.Duration {
	out := make(map[flow.Addr][]time.Duration, len(timelines))
	for rank, tl := range timelines {
		if len(tl.Steps) > 0 {
			out[rank] = StepEnds(tl, epoch)
		}
	}
	return out
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
