package jobrec

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

var epoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

func testTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Spec{Nodes: 8, NodesPerLeaf: 4, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func rec(id uint64, src, dst flow.Addr) flow.Record {
	return flow.Record{ID: id, Start: epoch, Src: src, Dst: dst, Bytes: 1000}
}

// railFlows builds flows connecting `nodes` on the given GPU rail (one
// cross-machine cluster in the black-box view).
func railFlows(t *testing.T, topo *topology.Topology, nodes []topology.NodeID, rail int, idBase uint64) []flow.Record {
	t.Helper()
	var out []flow.Record
	for i := 0; i+1 < len(nodes); i++ {
		src := topo.AddrOf(nodes[i], rail)
		dst := topo.AddrOf(nodes[i+1], rail)
		out = append(out, rec(idBase+uint64(i), src, dst))
	}
	return out
}

func TestCrossMachineClusters(t *testing.T) {
	topo := testTopo(t)
	// Job A occupies nodes 0-3 on rails 0 and 1 (two disjoint rail
	// clusters); job B occupies nodes 4-7 on rail 0.
	var records []flow.Record
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 0, 100)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 1, 200)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{4, 5, 6, 7}, 0, 300)...)

	clusters := CrossMachineClusters(records)
	if len(clusters) != 3 {
		t.Fatalf("cross-machine clusters = %d, want 3 (two rails of A, one of B)", len(clusters))
	}
	for _, c := range clusters {
		if len(c) != 4 {
			t.Errorf("cluster size = %d, want 4", len(c))
		}
	}
}

func TestRecognizeMergesRails(t *testing.T) {
	topo := testTopo(t)
	var records []flow.Record
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 0, 100)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 1, 200)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{4, 5, 6, 7}, 0, 300)...)

	jobs := Recognize(records, topo, Config{})
	if len(jobs) != 2 {
		t.Fatalf("job-level clusters = %d, want 2", len(jobs))
	}
	// Job A: 8 endpoints (4 nodes × 2 rails), servers {0,1,2,3}.
	a := jobs[0]
	if len(a.Endpoints) != 8 {
		t.Errorf("job A endpoints = %d, want 8", len(a.Endpoints))
	}
	if len(a.Servers) != 4 || a.Servers[0] != 0 || a.Servers[3] != 3 {
		t.Errorf("job A servers = %v, want [0 1 2 3]", a.Servers)
	}
	b := jobs[1]
	if len(b.Endpoints) != 4 || len(b.Servers) != 4 {
		t.Errorf("job B endpoints/servers = %d/%d, want 4/4", len(b.Endpoints), len(b.Servers))
	}
}

func TestRecognizeDoesNotMergeDifferentServerSets(t *testing.T) {
	topo := testTopo(t)
	// Two clusters sharing 3 of 4 servers: Jaccard 3/5 < 1 — distinct jobs.
	var records []flow.Record
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 0, 100)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{1, 2, 3, 4}, 1, 200)...)
	jobs := Recognize(records, topo, Config{})
	if len(jobs) != 2 {
		t.Fatalf("overlapping-but-different clusters merged: got %d jobs, want 2", len(jobs))
	}
}

func TestRecognizeIgnoresSelfFlows(t *testing.T) {
	topo := testTopo(t)
	a := topo.AddrOf(0, 0)
	records := []flow.Record{rec(1, a, a)}
	if got := CrossMachineClusters(records); len(got) != 0 {
		t.Errorf("self-flow produced clusters: %v", got)
	}
}

func TestSplitRecords(t *testing.T) {
	topo := testTopo(t)
	var records []flow.Record
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 0, 100)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{4, 5, 6, 7}, 0, 300)...)
	jobs := Recognize(records, topo, Config{})
	split := SplitRecords(records, jobs)
	if len(split) != len(jobs) {
		t.Fatalf("split buckets = %d, want %d", len(split), len(jobs))
	}
	total := 0
	for i, bucket := range split {
		total += len(bucket)
		for _, r := range bucket {
			found := false
			for _, e := range jobs[i].Endpoints {
				if r.Src == e {
					found = true
				}
			}
			if !found {
				t.Fatalf("record %d assigned to wrong job", r.ID)
			}
		}
	}
	if total != len(records) {
		t.Errorf("split lost records: %d of %d", total, len(records))
	}
}

func TestSplitRecordsDropsUnknown(t *testing.T) {
	topo := testTopo(t)
	records := railFlows(t, topo, []topology.NodeID{0, 1}, 0, 1)
	jobs := Recognize(records, topo, Config{})
	stray := rec(99, topo.AddrOf(6, 6), topo.AddrOf(7, 6))
	split := SplitRecords(append(records, stray), jobs)
	for _, bucket := range split {
		for _, r := range bucket {
			if r.ID == 99 {
				t.Fatal("stray record assigned to a job")
			}
		}
	}
}

func TestRecognizeDeterministicOrder(t *testing.T) {
	topo := testTopo(t)
	var records []flow.Record
	records = append(records, railFlows(t, topo, []topology.NodeID{4, 5, 6, 7}, 0, 300)...)
	records = append(records, railFlows(t, topo, []topology.NodeID{0, 1, 2, 3}, 0, 100)...)
	j1 := Recognize(records, topo, Config{})
	j2 := Recognize(records, topo, Config{})
	if len(j1) != len(j2) {
		t.Fatal("non-deterministic cluster count")
	}
	for i := range j1 {
		if j1[i].Endpoints[0] != j2[i].Endpoints[0] {
			t.Fatal("non-deterministic cluster order")
		}
	}
	if j1[0].Endpoints[0] > j1[1].Endpoints[0] {
		t.Error("clusters not sorted by first endpoint")
	}
}

func BenchmarkRecognize10kFlows(b *testing.B) {
	topo, err := topology.New(topology.Spec{Nodes: 360})
	if err != nil {
		b.Fatal(err)
	}
	var records []flow.Record
	id := uint64(0)
	for job := 0; job < 19; job++ {
		base := topology.NodeID(job * 18)
		for rail := 0; rail < 8; rail++ {
			for i := 0; i < 17; i++ {
				for rep := 0; rep < 4; rep++ {
					id++
					records = append(records, flow.Record{
						ID: id, Start: epoch, Bytes: 1 << 20,
						Src: topo.AddrOf(base+topology.NodeID(i), rail),
						Dst: topo.AddrOf(base+topology.NodeID(i+1), rail),
					})
				}
			}
		}
	}
	f := flow.NewFrame(records)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RecognizeFrame(f, topo, Config{})
	}
}
