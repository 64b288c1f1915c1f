// Switch-level congestion diagnosis (the paper's Fig. 5 scenario): two
// spine switches silently degrade mid-run; per-switch DP flow bandwidth
// aggregation exposes them and k-sigma detection raises alerts naming the
// exact switches.
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
	// 3 servers per leaf so DP groups span leaves and use the spines.
	topoSpec := llmprism.TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
	topo, err := llmprism.NewTopology(topoSpec)
	if err != nil {
		log.Fatal(err)
	}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 3 * time.Second},
		{Nodes: 8, TargetStep: 4 * time.Second},
		{Nodes: 8, TargetStep: 3 * time.Second},
	}, 21)
	if err != nil {
		log.Fatal(err)
	}

	badSpine := topo.SpineSwitch(2)
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "congestion",
		Topo: topoSpec,
		Jobs: jobs,
		Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
			Kind:   testbed.FaultSwitchDegrade,
			Switch: badSpine,
			At:     40 * time.Second,
			Until:  2 * time.Minute,
			Factor: 0.07,
		}}},
		Horizon: 2 * time.Minute,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated 2 minutes; %s degraded to 7%% capacity from 0:40\n\n", topo.SwitchName(badSpine))

	report, err := llmprism.New(llmprism.WithSwitchBucket(20*time.Second)).AnalyzeFrame(res.Frame, res.Topo)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("per-switch mean DP flow bandwidth (Gb/s):")
	fmt.Println(viz.BandwidthSeries(report.SwitchSeries, res.Topo.SwitchName))

	fmt.Println("switch-level alerts:")
	fmt.Print(viz.AlertList(report.SwitchAlerts))

	hit := false
	for _, a := range report.SwitchAlerts {
		if a.Kind == llmprism.AlertSwitchBandwidth && a.Switch == badSpine {
			hit = true
		}
	}
	fmt.Printf("\ndegraded switch correctly identified: %v\n", hit)
}
