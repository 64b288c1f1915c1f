package timeline

// The record-slice reconstruction pipeline, kept as the test oracle the
// shipped ReconstructView is compared against. It shares reconstructSteps
// with the view path and buckets records per endpoint itself.

import (
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// Reconstruct builds timelines for every rank of one job. records must be
// the job's flows sorted by start time; types is the pair classification
// from package parallel. Every rank that sends or receives a flow gets a
// timeline, with no steps when it has fewer than minDPFlows DP flows.
func Reconstruct(records []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) map[flow.Addr]*Timeline {
	perRank := byEndpoint(records)
	out := make(map[flow.Addr]*Timeline, len(perRank))
	for rank, recs := range perRank {
		out[rank] = reconstructRank(rank, recs, types, cfg)
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

// byEndpoint buckets records by endpoint: each record appears in the bucket
// of both its source and destination. Input order is preserved per bucket.
func byEndpoint(records []flow.Record) map[flow.Addr][]flow.Record {
	buckets := make(map[flow.Addr][]flow.Record)
	for _, r := range records {
		buckets[r.Src] = append(buckets[r.Src], r)
		if r.Dst != r.Src {
			buckets[r.Dst] = append(buckets[r.Dst], r)
		}
	}
	return buckets
}
