// Job recognition (the paper's Fig. 3 scenario, scaled down): a
// multi-tenant cluster is a black box of GPUs; one minute of network flows
// reveals the cross-machine NIC-rail clusters, and the physical topology
// merges the rails of each job into complete job-level clusters.
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/testbed"
	"github.com/llmprism/llmprism/viz"
)

func main() {
	// 48 servers (384 GPUs), six tenants of mixed size.
	topoSpec := llmprism.TopologySpec{Nodes: 48, NodesPerLeaf: 16, Spines: 4}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 12, TargetStep: 5 * time.Second},
		{Nodes: 10, TargetStep: 4 * time.Second},
		{Nodes: 8, TargetStep: 5 * time.Second},
		{Nodes: 8, TargetStep: 6 * time.Second},
		{Nodes: 6, TargetStep: 4 * time.Second},
		{Nodes: 4, TargetStep: 3 * time.Second},
	}, 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name:    "job-recognition",
		Topo:    topoSpec,
		Jobs:    jobs,
		Horizon: 90 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	// One minute of flows, as in the paper.
	window := res.Window(20*time.Second, time.Minute)
	fmt.Printf("analyzing %d flows from a 1-minute window over %d GPUs\n\n",
		len(window), res.Topo.Endpoints())

	// Phase 1: disjoint-set over flow endpoints → cross-machine clusters.
	cross := testbed.CrossMachineClusters(window)
	fmt.Printf("phase 1 — %d cross-machine clusters (one per NIC rail per job):\n\n", len(cross))
	fmt.Println(viz.ClusterGrid(res.Topo, cross))

	// Phase 2: merge clusters with identical server sets.
	report, err := llmprism.New().Analyze(window, res.Topo)
	if err != nil {
		log.Fatal(err)
	}
	var clusters []llmprism.JobCluster
	var sets [][]llmprism.Addr
	for _, j := range report.Jobs {
		clusters = append(clusters, j.Cluster)
		sets = append(sets, j.Cluster.Endpoints)
	}
	fmt.Printf("phase 2 — %d job-level clusters after the topology merge:\n\n", len(clusters))
	fmt.Println(viz.JobClusterGrid(res.Topo, clusters))

	score := testbed.ScoreRecognition(sets, res.Truth.Jobs)
	fmt.Printf("recognition: %d/%d exact, perfect=%v\n",
		score.ExactMatches, score.TrueJobs, score.Perfect())
}
