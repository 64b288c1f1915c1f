package jobrec

// The record-slice recognition pipeline, kept as the test oracle the
// shipped RecognizeFrame and SelectJobs are compared against. Recognize
// shares mergeClusters with the frame path.

import (
	"github.com/llmprism/llmprism/internal/dsu"
	"github.com/llmprism/llmprism/internal/flow"
)

// CrossMachineClusters returns the phase-1 clusters: endpoints connected by
// observed flows, before the topology merge. Cluster and member order is
// deterministic (sorted by smallest endpoint).
func CrossMachineClusters(records []flow.Record) [][]flow.Addr {
	u := dsu.NewSparse[flow.Addr]()
	for _, r := range records {
		if r.Src == r.Dst {
			continue
		}
		u.Union(r.Src, r.Dst)
	}
	return sortedGroups(u)
}

// Recognize runs the full Algorithm 1: cross-machine clustering followed by
// the topology-based server-set merge, yielding job-level clusters.
func Recognize(records []flow.Record, mapper ServerMapper, _ Config) []Cluster {
	return mergeClusters(CrossMachineClusters(records), mapper)
}

// SplitRecords partitions records by recognized cluster, dropping records
// whose endpoints belong to no cluster. The i-th result slice corresponds
// to clusters[i].
func SplitRecords(records []flow.Record, clusters []Cluster) [][]flow.Record {
	owner := make(map[flow.Addr]int)
	for i, c := range clusters {
		for _, a := range c.Endpoints {
			owner[a] = i + 1
		}
	}
	out := make([][]flow.Record, len(clusters))
	for _, r := range records {
		if i := owner[r.Src]; i > 0 && owner[r.Dst] == i {
			out[i-1] = append(out[i-1], r)
		}
	}
	return out
}
