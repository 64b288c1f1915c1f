// Package parallel implements communication-type identification
// (Algorithm 2 of the LLMPrism paper): within one recognized job, every
// communicating endpoint pair is classified as pipeline-parallel (PP) or
// data-parallel (DP).
//
// The signal is the per-step distinct-flow-size count: PP pairs carry one
// fixed-size activation/gradient message shape, while DP collectives split
// into bucketed chunk streams with several distinct sizes. Steps are
// delimited with Bayesian online change-point detection over inter-flow
// gaps, the per-step counts are reduced with a mode to resist noise, and a
// final transitive-closure pass over the DP graph repairs DP pairs that
// noise made look like PP (if u–v and v–w are DP, u and w are in one DP
// group, so any observed u–w traffic is DP).
package parallel

import (
	"fmt"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/dsu"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stats"
)

// Type is the inferred communication type of a pair.
type Type uint8

// Communication types.
const (
	TypePP Type = iota + 1
	TypeDP
)

func (t Type) String() string {
	switch t {
	case TypePP:
		return "PP"
	case TypeDP:
		return "DP"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Config tunes identification.
type Config struct {
	// Split carries the detector pool step division over each pair's flow
	// sequence draws from. The splitter has no settings; the field remains
	// for bench/shadow.go until ROADMAP item 1(b).
	Split bocd.SplitConfig
	// DisableRefinement skips the DP transitive-closure pass — the
	// "LLMPrism w/o refinement" baseline of Table I.
	DisableRefinement bool
}

// minFlows is the minimum number of flows a pair needs to be classified at
// all.
const minFlows = 2

// Classification is the result of identification over one job.
type Classification struct {
	// Types maps every classified pair to its inferred type.
	Types map[flow.Pair]Type
	// DPGroups are the connected components of the DP graph after
	// refinement — each is one data-parallel group (per pipeline stage
	// and NIC rail), sorted for determinism.
	DPGroups [][]flow.Addr
	// StepsPerPair reports how many steps the splitter found per pair
	// (diagnostic; short windows yield few steps and noisier modes). It is
	// len(Segments[p]) for every classified pair.
	StepsPerPair map[flow.Pair]int
	// Segments holds the steps the splitter found per classified pair,
	// over the pair's flows in start order. Timeline reconstruction reuses
	// them for a rank whose DP flows are exactly one pair's flows (every
	// rank of a two-member DP group), since splitting that same sequence
	// again gives the same segments.
	Segments map[flow.Pair][]bocd.Segment
}

// IdentifyView classifies every communicating pair of one job's frame view.
// It walks the view's pair spans — each already contiguous and sorted by
// start — so no per-pair grouping maps or record copies are built; the
// start-time and size columns stream through two reused scratch buffers.
// It is the only identification entry point; oracle_test.go keeps the
// record-slice Identify it is tested against.
func IdentifyView(v flow.View, cfg Config) Classification {
	f := v.Frame()
	out := Classification{
		Types:        make(map[flow.Pair]Type, v.NumPairs()),
		StepsPerPair: make(map[flow.Pair]int, v.NumPairs()),
		Segments:     make(map[flow.Pair][]bocd.Segment, v.NumPairs()),
	}
	var times []time.Time
	var sizes []int64
	for i, n := 0, v.NumPairs(); i < n; i++ {
		lo, hi := v.PairSpan(i)
		if hi-lo < minFlows {
			continue
		}
		times = times[:0]
		sizes = sizes[:0]
		for r := lo; r < hi; r++ {
			times = append(times, f.Start(r))
			sizes = append(sizes, f.Bytes(r))
		}
		t, segments := classifySpan(times, sizes, cfg)
		p := v.PairAt(i)
		out.Types[p] = t
		out.StepsPerPair[p] = len(segments)
		out.Segments[p] = segments
	}

	if !cfg.DisableRefinement {
		refine(&out)
	}
	out.DPGroups = dpComponents(out.Types)
	return out
}

// classifySpan is the shared classification core over one pair's start
// times and flow sizes (parallel slices, sorted by start). It returns the
// pair's type and the segments it was judged over.
func classifySpan(times []time.Time, sizes []int64, cfg Config) (Type, []bocd.Segment) {
	segments := bocd.SplitTimes(times, cfg.Split)
	counts := make([]int, 0, len(segments))
	for _, seg := range segments {
		counts = append(counts, stats.DistinctCount(sizes[seg.Lo:seg.Hi]))
	}
	mode, _ := stats.Mode(counts)
	if mode == 1 {
		return TypePP, segments
	}
	return TypeDP, segments
}

// refine applies the DP transitivity rule: every pair whose endpoints land
// in the same connected component of the DP graph must itself be DP.
func refine(c *Classification) {
	comp := dsu.NewSparse[flow.Addr]()
	for p, t := range c.Types {
		if t == TypeDP {
			comp.Union(p.A, p.B)
		}
	}
	for p, t := range c.Types {
		if t == TypePP && comp.Same(p.A, p.B) {
			c.Types[p] = TypeDP
		}
	}
}

// dpComponents extracts the connected components of the (final) DP graph.
func dpComponents(types map[flow.Pair]Type) [][]flow.Addr {
	comp := dsu.NewSparse[flow.Addr]()
	for p, t := range types {
		if t == TypeDP {
			comp.Union(p.A, p.B)
		}
	}
	groups := comp.Groups()
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	}
	sort.Slice(groups, func(i, j int) bool {
		if len(groups[i]) == 0 || len(groups[j]) == 0 {
			return len(groups[j]) == 0
		}
		return groups[i][0] < groups[j][0]
	})
	return groups
}
