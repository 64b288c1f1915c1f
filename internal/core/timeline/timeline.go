// Package timeline reconstructs per-GPU training timelines from classified
// network flows (§IV-C of the LLMPrism paper).
//
// Every training step concludes with a burst of data-parallel collective
// traffic, whatever compute/communication overlap optimizations the tenant
// uses. The reconstructor therefore divides each rank's DP flows into steps
// with the same BOCD splitter used for classification; the end of a step's
// DP segment marks the end of the step. PP and DP flows are then laid out
// chronologically per rank, with the gaps between communication events
// approximating compute.
package timeline

import (
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// EventKind classifies a timeline event.
type EventKind uint8

// Event kinds.
const (
	EventPP EventKind = iota + 1
	EventDP
)

func (k EventKind) String() string {
	if k == EventPP {
		return "PP"
	}
	return "DP"
}

// Event is one communication event on a rank's timeline.
type Event struct {
	Kind  EventKind
	Start time.Time
	End   time.Time
	Peer  flow.Addr
	Bytes int64
}

// Duration returns the event length.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

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
	// Events counts the rank's communication events inside the step.
	Events int
}

// Duration returns the step length.
func (s Step) Duration() time.Duration { return s.End.Sub(s.Start) }

// DPDuration returns the length of the DP segment.
func (s Step) DPDuration() time.Duration { return s.DPEnd.Sub(s.DPStart) }

// Timeline is the reconstructed schedule of one GPU rank.
type Timeline struct {
	Rank flow.Addr
	// Events lists every communication event chronologically.
	Events []Event
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
// from package parallel.
func Reconstruct(records []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	cfg = cfg.withDefaults()
	perRank := flow.ByEndpoint(records)
	out := make(map[flow.Addr]*Timeline, len(perRank))
	for rank, recs := range perRank {
		out[rank] = reconstructRank(rank, recs, types, cfg)
	}
	return out
}

// ReconstructView is Reconstruct over one job's frame view. Instead of
// bucketing copied records per endpoint, it streams the view's rows (in
// start order) once, appending each row's event to its source and
// destination ranks' exactly-sized event buffers. Results are bit-identical
// to Reconstruct over the equivalent record slice.
func ReconstructView(v flow.View, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	cfg = cfg.withDefaults()
	f := v.Frame()
	rows := v.Rows()

	// Exact per-rank event counts, so every events slice allocates once.
	counts := make(map[flow.Addr]int)
	for _, r := range rows {
		src, dst := f.Src(int(r)), f.Dst(int(r))
		counts[src]++
		if dst != src {
			counts[dst]++
		}
	}
	type rankBuild struct {
		tl       *Timeline
		dpStarts []time.Time
		dpEnds   []time.Time
	}
	builds := make(map[flow.Addr]*rankBuild, len(counts))
	for rank, n := range counts {
		builds[rank] = &rankBuild{tl: &Timeline{Rank: rank, Events: make([]Event, 0, n)}}
	}

	add := func(b *rankBuild, rank flow.Addr, p flow.Pair, kind EventKind, start, end time.Time, bytes int64) {
		if kind == EventDP {
			b.dpStarts = append(b.dpStarts, start)
			b.dpEnds = append(b.dpEnds, end)
		}
		b.tl.Events = append(b.tl.Events, Event{
			Kind:  kind,
			Start: start,
			End:   end,
			Peer:  p.Other(rank),
			Bytes: bytes,
		})
	}
	for _, ri := range rows {
		r := int(ri)
		p := f.PairOf(r)
		kind := EventPP
		if types[p] == parallel.TypeDP {
			kind = EventDP
		}
		start, end, bytes := f.Start(r), f.End(r), f.Bytes(r)
		src, dst := f.Src(r), f.Dst(r)
		add(builds[src], src, p, kind, start, end, bytes)
		if dst != src {
			add(builds[dst], dst, p, kind, start, end, bytes)
		}
	}

	out := make(map[flow.Addr]*Timeline, len(builds))
	for rank, b := range builds {
		reconstructSteps(b.tl, b.dpStarts, b.dpEnds, cfg)
		out[rank] = b.tl
	}
	return out
}

func reconstructRank(rank flow.Addr, recs []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) *Timeline {
	tl := &Timeline{Rank: rank}
	var dpStarts, dpEnds []time.Time
	for _, r := range recs {
		kind := EventPP
		if types[r.Pair()] == parallel.TypeDP {
			kind = EventDP
			dpStarts = append(dpStarts, r.Start)
			dpEnds = append(dpEnds, r.End())
		}
		tl.Events = append(tl.Events, Event{
			Kind:  kind,
			Start: r.Start,
			End:   r.End(),
			Peer:  r.Pair().Other(rank),
			Bytes: r.Bytes,
		})
	}
	reconstructSteps(tl, dpStarts, dpEnds, cfg)
	return tl
}

// reconstructSteps is the shared step-division core: events are the rank's
// communication events in flow order, dpStarts/dpEnds the start and end
// times of its DP flows in that same order. It sorts the events
// chronologically and appends the reconstructed steps to tl.
func reconstructSteps(tl *Timeline, dpStarts, dpEnds []time.Time, cfg Config) {
	sort.Slice(tl.Events, func(i, j int) bool { return tl.Events[i].Start.Before(tl.Events[j].Start) })

	if len(dpStarts) < cfg.MinDPFlows {
		return
	}
	segments := bocd.SplitTimes(dpStarts, cfg.Split)

	var prevEnd time.Time
	if len(tl.Events) > 0 {
		prevEnd = tl.Events[0].Start
	}
	for i, seg := range segments {
		dpStart := dpStarts[seg.Lo]
		dpEnd := dpEnds[seg.Lo]
		for k := seg.Lo; k < seg.Hi; k++ {
			if e := dpEnds[k]; e.After(dpEnd) {
				dpEnd = e
			}
		}
		step := Step{
			Index:   i,
			Start:   prevEnd,
			End:     dpEnd,
			DPStart: dpStart,
			DPEnd:   dpEnd,
		}
		step.Events = countEventsIn(tl.Events, step.Start, step.End)
		tl.Steps = append(tl.Steps, step)
		prevEnd = dpEnd
	}
}

// countEventsIn returns how many events start in [from, to). events must be
// sorted by Start; a reversed interval counts zero.
func countEventsIn(events []Event, from, to time.Time) int {
	lo := sort.Search(len(events), func(i int) bool { return !events[i].Start.Before(from) })
	hi := sort.Search(len(events), func(i int) bool { return !events[i].Start.Before(to) })
	if hi < lo {
		return 0
	}
	return hi - lo
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
