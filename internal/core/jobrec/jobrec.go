// Package jobrec implements LLM training job recognition (Algorithm 1 of
// the LLMPrism paper): starting from a black-box view of tens of thousands
// of GPUs, it clusters NIC endpoints that exchange network flows into
// cross-machine clusters with a disjoint-set union, then merges clusters
// whose physical server sets are identical (Jaccard similarity 1) —
// tensor-parallel traffic never crosses the fabric, so the several NIC
// rails of one job appear as separate cross-machine clusters that only the
// topology can reunite.
package jobrec

import (
	"sort"

	"github.com/llmprism/llmprism/internal/dsu"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// ServerMapper resolves a NIC endpoint to its physical server — the only
// topology knowledge the provider needs (and has).
type ServerMapper interface {
	NodeOf(flow.Addr) topology.NodeID
}

// Cluster is one recognized training job.
type Cluster struct {
	// Endpoints are the member NICs/GPUs, sorted.
	Endpoints []flow.Addr
	// Servers is the deduplicated sorted server set of the endpoints.
	Servers []topology.NodeID
}

// Config has no fields: recognition merges clusters with identical server
// sets (Jaccard similarity 1), the paper's rule. It stays because
// llmprism.Config.Recognition carries it, and bench/ builds that config.
type Config struct{}

// CrossMachineClustersFrame returns the phase-1 clusters: endpoints
// connected by observed flows, before the topology merge. Cluster and
// member order is deterministic (sorted by smallest endpoint). It unions
// the frame's distinct pairs rather than every record — one DSU operation
// per pair instead of per flow.
func CrossMachineClustersFrame(f *flow.Frame) [][]flow.Addr {
	u := dsu.NewSparse[flow.Addr]()
	for _, p := range f.Pairs() {
		if p.A == p.B {
			continue
		}
		u.Union(p.A, p.B)
	}
	return sortedGroups(u)
}

func sortedGroups(u *dsu.Sparse[flow.Addr]) [][]flow.Addr {
	clusters := u.Groups()
	for _, c := range clusters {
		sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i][0] < clusters[j][0] })
	return clusters
}

// RecognizeFrame runs the full Algorithm 1: cross-machine clustering over
// the frame's pair index followed by the topology-based server-set merge,
// yielding job-level clusters. It is the only recognition entry point;
// oracle_test.go keeps the record-slice Recognize it is tested against.
func RecognizeFrame(f *flow.Frame, mapper ServerMapper, _ Config) []Cluster {
	return mergeClusters(CrossMachineClustersFrame(f), mapper)
}

// mergeClusters runs the topology-based server-set merge over the phase-1
// clusters: clusters whose server sets are identical are one job.
func mergeClusters(raw [][]flow.Addr, mapper ServerMapper) []Cluster {
	byKey := make(map[string]int)
	var groups [][]int
	for i, members := range raw {
		key := fingerprint(serverSet(members, mapper))
		g, ok := byKey[key]
		if !ok {
			g = len(groups)
			byKey[key] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}
	clusters := make([]Cluster, 0, len(groups))
	for _, members := range groups {
		var c Cluster
		for _, i := range members {
			c.Endpoints = append(c.Endpoints, raw[i]...)
		}
		sort.Slice(c.Endpoints, func(i, j int) bool { return c.Endpoints[i] < c.Endpoints[j] })
		c.Servers = serverSet(c.Endpoints, mapper)
		clusters = append(clusters, c)
	}
	sort.Slice(clusters, func(i, j int) bool { return clusters[i].Endpoints[0] < clusters[j].Endpoints[0] })
	return clusters
}

// SelectJobs partitions a frame into one view per recognized cluster,
// without copying any records: each view is the cluster's pair spans plus
// a start-ordered row permutation. Rows whose endpoints belong to no
// cluster, or to two different clusters, appear in no view.
func SelectJobs(f *flow.Frame, clusters []Cluster) []flow.View {
	groups := make([][]flow.Addr, len(clusters))
	for i, c := range clusters {
		groups[i] = c.Endpoints
	}
	return f.SelectMany(groups)
}

func serverSet(addrs []flow.Addr, mapper ServerMapper) []topology.NodeID {
	seen := make(map[topology.NodeID]struct{}, len(addrs))
	for _, a := range addrs {
		seen[mapper.NodeOf(a)] = struct{}{}
	}
	out := make([]topology.NodeID, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fingerprint encodes a sorted server set as a compact map key.
func fingerprint(set []topology.NodeID) string {
	buf := make([]byte, 0, len(set)*4)
	for _, n := range set {
		buf = append(buf, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	}
	return string(buf)
}
