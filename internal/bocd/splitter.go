package bocd

import (
	"math"
	"sort"
	"time"
)

// Segment is a half-open index range [Lo, Hi) over an event sequence,
// representing one training step's worth of events.
type Segment struct {
	Lo, Hi int
}

// Len returns the number of events in the segment.
func (s Segment) Len() int { return s.Hi - s.Lo }

// SplitConfig parameterizes step division of a flow/event time sequence.
type SplitConfig struct {
	// BOCD configures the change-point detector run over normalized
	// inter-event gaps. The zero value uses the package defaults.
	BOCD Config
	// MinSeparation is the minimum multiplicative separation between the
	// within-step gap population and the between-step gap cluster. The
	// splitter locates the largest ratio jump in the sorted upper half of
	// the gaps; if that jump is below MinSeparation there are no step
	// boundaries in the window (the paper's premise — "intervals between
	// flows within the same step are significantly shorter than those
	// between adjacent steps" — does not hold), and a BOCD change-point
	// only counts as a boundary when its gap sits above the jump. This is
	// the robustness guard that keeps intra-step structure (e.g. the
	// optimizer pause between reduce-scatter and all-gather bursts,
	// typically a few× the largest transfer gap) from registering as step
	// boundaries. Default 4.
	MinSeparation float64
	// MergeFactor post-merges adjacent segments whose separating gap is
	// below MergeFactor × the larger segment span — see mergeImplausible.
	// Default 1.5.
	MergeFactor float64
	// Detectors, when non-nil and configured with the same BOCD settings,
	// supplies the change-point detector via Reset-based reuse instead of a
	// fresh allocation per call — the steady-state mode of the streaming
	// monitor, where SplitTimes runs once per pair and rank every window.
	// Reuse never changes results; a mismatched pool is ignored.
	Detectors *Pool
}

func (c SplitConfig) withDefaults() SplitConfig {
	if c.MinSeparation <= 1 {
		c.MinSeparation = 4
	}
	if c.MergeFactor <= 0 {
		c.MergeFactor = 1.5
	}
	return c
}

// separationThreshold finds the largest multiplicative jump between
// consecutive gaps in the upper half of the ascending-sorted gap
// distribution. ok is false when no jump reaches minRatio. The threshold is
// the geometric mean of the jump's endpoints.
func separationThreshold(sorted []float64, minRatio float64) (float64, bool) {
	bestRatio, bestAt := 0.0, -1
	for i := len(sorted) / 2; i+1 < len(sorted); i++ {
		lo, hi := sorted[i], sorted[i+1]
		if lo <= 0 {
			continue
		}
		if ratio := hi / lo; ratio > bestRatio {
			bestRatio, bestAt = ratio, i
		}
	}
	if bestAt < 0 || bestRatio < minRatio {
		return 0, false
	}
	return math.Sqrt(sorted[bestAt] * sorted[bestAt+1]), true
}

// SplitTimes divides a time-ordered event sequence into step segments using
// BOCD over the log inter-event gaps, as in §IV-B of the paper: gaps within
// a training step are much shorter than the gap between adjacent steps, so
// a change-point in the gap process marks a step boundary.
//
// times must be sorted ascending. The returned segments partition
// [0, len(times)).
func SplitTimes(times []time.Time, cfg SplitConfig) []Segment {
	cfg = cfg.withDefaults()
	n := len(times)
	if n == 0 {
		return nil
	}
	if n <= 2 {
		return []Segment{{Lo: 0, Hi: n}}
	}

	det, pooled := cfg.acquireDetector()
	if pooled != nil {
		defer pooled.Put(det)
	}
	// The gaps and their sorted copy live in the detector's scratch, so a
	// pooled detector brings them along.
	det.splitBuf = nextBuf(det.splitBuf, 2*(n-1))
	gaps, sorted := det.splitBuf[:n-1], det.splitBuf[n-1:]
	for i := range gaps {
		gaps[i] = times[i+1].Sub(times[i]).Seconds()
	}
	copy(sorted, gaps)
	sort.Float64s(sorted)
	guard, separated := separationThreshold(sorted, cfg.MinSeparation)
	if !separated {
		// No two-regime structure in the gaps: the window holds no
		// complete step boundary.
		return []Segment{{Lo: 0, Hi: n}}
	}
	median := medianOfSorted(sorted)
	if median <= 0 {
		median = 1e-9
	}

	// A boundary needs gaps[i] >= guard, and the detector's state after the
	// last such gap is never read: stop there instead of stepping the tail.
	last := n - 2
	for last > 0 && gaps[last] < guard {
		last--
	}
	var segments []Segment
	lo := 0
	for i, g := range gaps[:last+1] {
		// Normalize gaps by their median so the detector is scale-free
		// across pairs and jobs, and winsorize the low side at the median:
		// gaps below the median carry no step-boundary information
		// (boundaries are always unusually *large* gaps), but near-zero gaps
		// — concurrent collective chains, retransmitted records — would
		// otherwise dominate the learned within-step distribution and mask
		// boundaries.
		x := g / median
		if x < 1 {
			x = 1
		}
		p := det.Step(x)
		if i == 0 {
			continue
		}
		if p > det.cfg.Threshold && g >= guard {
			// Gap i separates times[i] and times[i+1]: a new step
			// begins at event i+1. Reset the detector so run-length
			// hypotheses containing the boundary spike cannot absorb
			// (and thereby mask) the next boundary — each step's gap
			// regime is learned fresh.
			segments = append(segments, Segment{Lo: lo, Hi: i + 1})
			lo = i + 1
			det.Reset()
		}
	}
	segments = append(segments, Segment{Lo: lo, Hi: n})
	return mergeImplausible(times, segments, cfg.MergeFactor)
}

// acquireDetector returns the detector SplitTimes runs with and, when it
// came from the configured pool, the pool to return it to. The pool is
// used only when its configuration matches cfg.BOCD exactly, so pooled and
// fresh detectors are interchangeable.
func (c SplitConfig) acquireDetector() (*Detector, *Pool) {
	if c.Detectors != nil && c.Detectors.cfg == c.BOCD.withDefaults() {
		return c.Detectors.Get(), c.Detectors
	}
	return New(c.BOCD), nil
}

// mergeImplausible merges adjacent segments whose separating gap is not
// clearly larger than the segments themselves. A real step boundary is a
// compute phase, which dwarfs the communication bursts it separates; a gap
// comparable to the burst spans (e.g. the optimizer pause splitting one DP
// burst into reduce-scatter and all-gather halves when the window holds no
// true boundary to anchor the gap distribution) is intra-step structure.
func mergeImplausible(times []time.Time, segments []Segment, factor float64) []Segment {
	if len(segments) <= 1 {
		return segments
	}
	out := segments[:1]
	for _, next := range segments[1:] {
		cur := &out[len(out)-1]
		gap := times[next.Lo].Sub(times[cur.Hi-1]).Seconds()
		spanCur := times[cur.Hi-1].Sub(times[cur.Lo]).Seconds()
		spanNext := times[next.Hi-1].Sub(times[next.Lo]).Seconds()
		span := spanCur
		if spanNext > span {
			span = spanNext
		}
		if gap < factor*span {
			cur.Hi = next.Hi
		} else {
			out = append(out, next)
		}
	}
	return out
}

// NaiveSplitTimes divides the sequence with a simple threshold rule:
// a boundary is any gap exceeding factor × median(gaps). It is the baseline
// step splitter used in the A2 ablation.
func NaiveSplitTimes(times []time.Time, factor float64) []Segment {
	n := len(times)
	if n == 0 {
		return nil
	}
	if factor <= 0 {
		factor = 5
	}
	if n <= 2 {
		return []Segment{{Lo: 0, Hi: n}}
	}
	gaps := make([]float64, n-1)
	for i := 0; i < n-1; i++ {
		gaps[i] = times[i+1].Sub(times[i]).Seconds()
	}
	threshold := factor * medianOf(gaps)
	var segments []Segment
	lo := 0
	for i, g := range gaps {
		if g > threshold {
			segments = append(segments, Segment{Lo: lo, Hi: i + 1})
			lo = i + 1
		}
	}
	segments = append(segments, Segment{Lo: lo, Hi: n})
	return segments
}

func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return medianOfSorted(sorted)
}

// medianOfSorted is medianOf for a non-empty ascending-sorted slice.
func medianOfSorted(sorted []float64) float64 {
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		return sorted[mid]
	}
	return (sorted[mid-1] + sorted[mid]) / 2
}
