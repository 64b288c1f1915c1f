package parallel

// The record-slice identification pipeline, kept as the test oracle the
// shipped IdentifyView is compared against. It shares classifySpan with
// the view path and groups records per pair itself.

import (
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/flow"
)

// Identify classifies every communicating pair within one job's records.
// Records must be sorted by start time.
func Identify(records []flow.Record, cfg Config) Classification {
	byPair := groupByPair(records)
	out := Classification{
		Types:        make(map[flow.Pair]Type, len(byPair)),
		StepsPerPair: make(map[flow.Pair]int, len(byPair)),
		Segments:     make(map[flow.Pair][]bocd.Segment, len(byPair)),
	}

	// Deterministic pair order.
	pairs := make([]flow.Pair, 0, len(byPair))
	for p := range byPair {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})

	for _, p := range pairs {
		recs := byPair[p]
		if len(recs) < minFlows {
			continue
		}
		t, segments := classifyPair(recs, cfg)
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

// classifyPair divides one pair's flows into steps and applies the
// distinct-size mode rule.
func classifyPair(recs []flow.Record, cfg Config) (Type, []bocd.Segment) {
	times := make([]time.Time, len(recs))
	sizes := make([]int64, len(recs))
	for i, r := range recs {
		times[i] = r.Start
		sizes[i] = r.Bytes
	}
	return classifySpan(times, sizes, cfg)
}

// groupByPair buckets records by their canonical endpoint pair, preserving
// input order inside each bucket.
func groupByPair(records []flow.Record) map[flow.Pair][]flow.Record {
	groups := make(map[flow.Pair][]flow.Record)
	for _, r := range records {
		p := r.Pair()
		groups[p] = append(groups[p], r)
	}
	return groups
}
