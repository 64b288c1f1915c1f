package netsim

import (
	"math"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// testNet builds an 8-node fabric: 100 Gb/s NICs (12.5 GB/s), 2 leaves,
// 2 spines, 400 Gb/s uplinks.
func testNet(t *testing.T, cfg Config) (*Network, *topology.Topology) {
	t.Helper()
	topo, err := topology.New(topology.Spec{
		Nodes: 8, GPUsPerNode: 8, NodesPerLeaf: 4, Spines: 2,
		NICGbps: 100, UplinkGbps: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, cfg), topo
}

func drainAll(t *testing.T, n *Network, horizon time.Duration) []Completion {
	t.Helper()
	var out []Completion
	for {
		at, ok := n.NextEventTime()
		if !ok || at > horizon {
			return out
		}
		out = append(out, n.AdvanceTo(at)...)
	}
}

func TestSingleFlowDuration(t *testing.T) {
	n, topo := testNet(t, Config{})
	src := topo.AddrOf(0, 0)
	dst := topo.AddrOf(1, 0)
	const bytes = 125_000_000 // at 12.5 GB/s -> 10 ms
	if _, err := n.Start(src, dst, bytes, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	comps := drainAll(t, n, time.Second)
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	c := comps[0]
	wantDur := 10*time.Millisecond + 8*time.Microsecond
	got := c.End - c.Start
	if math.Abs(float64(got-wantDur)) > float64(50*time.Microsecond) {
		t.Errorf("flow duration = %v, want ≈ %v", got, wantDur)
	}
	if c.Tag != 1 || c.Bytes != bytes {
		t.Errorf("completion metadata wrong: %+v", c)
	}
	if len(c.Switches) == 0 {
		t.Error("cross-node flow should traverse switches")
	}
}

func TestTwoFlowsShareNIC(t *testing.T) {
	n, topo := testNet(t, Config{})
	src := topo.AddrOf(0, 0)
	const bytes = 125_000_000
	// Both flows leave the same source NIC: each should get half rate.
	if _, err := n.Start(src, topo.AddrOf(1, 0), bytes, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Start(src, topo.AddrOf(2, 0), bytes, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	comps := drainAll(t, n, time.Second)
	if len(comps) != 2 {
		t.Fatalf("got %d completions, want 2", len(comps))
	}
	for _, c := range comps {
		got := (c.End - c.Start).Seconds()
		if got < 0.019 || got > 0.022 {
			t.Errorf("shared-NIC flow took %vs, want ≈ 0.02s", got)
		}
	}
}

func TestDepartureRaisesRate(t *testing.T) {
	n, topo := testNet(t, Config{})
	src := topo.AddrOf(0, 0)
	// Short flow and long flow share the NIC; after the short one leaves,
	// the long one speeds up: total time < sequential, > fully parallel.
	if _, err := n.Start(src, topo.AddrOf(1, 0), 62_500_000, 0, 1, 0); err != nil { // 5ms alone
		t.Fatal(err)
	}
	if _, err := n.Start(src, topo.AddrOf(2, 0), 125_000_000, 0, 2, 0); err != nil { // 10ms alone
		t.Fatal(err)
	}
	comps := drainAll(t, n, time.Second)
	if len(comps) != 2 {
		t.Fatalf("got %d completions, want 2", len(comps))
	}
	var long Completion
	for _, c := range comps {
		if c.Tag == 2 {
			long = c
		}
	}
	// Long flow: 10ms shared (drains 62.5MB while short flow finishes its
	// 62.5MB at half rate) then 62.5MB at full rate = 5ms -> 15ms total.
	got := (long.End - long.Start).Seconds()
	if got < 0.0145 || got > 0.0155 {
		t.Errorf("long flow took %vs, want ≈ 0.015s", got)
	}
}

func TestIntraNodeFlow(t *testing.T) {
	n, topo := testNet(t, Config{})
	src, dst := topo.AddrOf(3, 0), topo.AddrOf(3, 7)
	if _, err := n.Start(src, dst, 400_000_000, 0, 9, 0); err != nil {
		t.Fatal(err)
	}
	comps := drainAll(t, n, time.Second)
	if len(comps) != 1 {
		t.Fatalf("got %d completions, want 1", len(comps))
	}
	c := comps[0]
	if !c.IntraNode || len(c.Switches) != 0 {
		t.Errorf("intra-node flow misreported: %+v", c)
	}
	// 400 MB at 400 GB/s ≈ 1 ms.
	got := (c.End - c.Start).Seconds()
	if got < 0.0009 || got > 0.0015 {
		t.Errorf("NVLink flow took %vs, want ≈ 0.001s", got)
	}
}

func TestSwitchDegradationSlowsFlows(t *testing.T) {
	n, topo := testNet(t, Config{})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(1, 0)
	const bytes = 125_000_000

	// Baseline.
	if _, err := n.Start(src, dst, bytes, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	base := drainAll(t, n, time.Second)[0]
	baseDur := base.End - base.Start

	// Degrade the shared leaf (both nodes are on leaf 0) to 25%.
	n.SetSwitchScale(topo.LeafSwitch(0), 0.25, n.Now())
	if _, err := n.Start(src, dst, bytes, 0, 2, n.Now()); err != nil {
		t.Fatal(err)
	}
	slow := drainAll(t, n, 10*time.Second)[0]
	slowDur := slow.End - slow.Start
	if ratio := float64(slowDur) / float64(baseDur); ratio < 3.5 || ratio > 4.5 {
		t.Errorf("degraded/baseline duration ratio = %.2f, want ≈ 4", ratio)
	}

	// Restore and verify recovery.
	n.SetSwitchScale(topo.LeafSwitch(0), 1, n.Now())
	if _, err := n.Start(src, dst, bytes, 0, 3, n.Now()); err != nil {
		t.Fatal(err)
	}
	rec := drainAll(t, n, time.Minute)[0]
	recDur := rec.End - rec.Start
	if math.Abs(float64(recDur-baseDur)) > float64(time.Millisecond) {
		t.Errorf("restored duration %v differs from baseline %v", recDur, baseDur)
	}
}

func TestStalledFlowResumesAfterRestore(t *testing.T) {
	n, topo := testNet(t, Config{})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(1, 0)
	if _, err := n.Start(src, dst, 125_000_000, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Kill the src NIC link entirely: flow stalls, no completion event.
	n.SetLinkScale(NICUp(src), 0, 5*time.Millisecond)
	if _, ok := n.NextEventTime(); ok {
		t.Fatal("stalled flow still has a projected completion")
	}
	// Restore at t=1s: flow should finish.
	n.SetLinkScale(NICUp(src), 1, time.Second)
	comps := drainAll(t, n, 10*time.Second)
	if len(comps) != 1 {
		t.Fatalf("got %d completions after restore, want 1", len(comps))
	}
	if comps[0].End < time.Second {
		t.Errorf("flow completed at %v, before the restore", comps[0].End)
	}
}

func TestAnalyticModeIgnoresLaterArrivals(t *testing.T) {
	n, topo := testNet(t, Config{Mode: ModeAnalytic})
	src := topo.AddrOf(0, 0)
	const bytes = 125_000_000
	if _, err := n.Start(src, topo.AddrOf(1, 0), bytes, 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Start(src, topo.AddrOf(2, 0), bytes, 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	comps := drainAll(t, n, time.Second)
	if len(comps) != 2 {
		t.Fatalf("got %d completions, want 2", len(comps))
	}
	// First flow was admitted alone: full rate, ≈10ms. Second flow saw
	// concurrency 2 at admission: ≈20ms.
	byTag := map[uint64]time.Duration{}
	for _, c := range comps {
		byTag[c.Tag] = c.End - c.Start
	}
	if d := byTag[1].Seconds(); d < 0.009 || d > 0.011 {
		t.Errorf("first analytic flow took %vs, want ≈ 0.01", d)
	}
	if d := byTag[2].Seconds(); d < 0.019 || d > 0.022 {
		t.Errorf("second analytic flow took %vs, want ≈ 0.02", d)
	}
}

func TestStartBeforeNowRejected(t *testing.T) {
	n, topo := testNet(t, Config{})
	if _, err := n.Start(topo.AddrOf(0, 0), topo.AddrOf(1, 0), 1000, 0, 1, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Start(topo.AddrOf(0, 0), topo.AddrOf(1, 0), 1000, 0, 2, 0); err == nil {
		t.Error("Start in the past should fail")
	}
}

func TestManyFlowsAllComplete(t *testing.T) {
	n, topo := testNet(t, Config{})
	const flows = 500
	endpoints := topo.Endpoints()
	started := 0
	for i := 0; i < flows; i++ {
		src := flow.Addr(i % endpoints)
		dst := flow.Addr((i*13 + 7) % endpoints)
		if topo.NodeOf(src) == topo.NodeOf(dst) {
			continue
		}
		at := time.Duration(i) * 10 * time.Microsecond
		if _, err := n.Start(src, dst, int64(1+i)*100_000, uint32(i), uint64(i), at); err != nil {
			t.Fatal(err)
		}
		started++
	}
	comps := drainAll(t, n, time.Hour)
	if len(comps) != started {
		t.Fatalf("completed %d of %d flows", len(comps), started)
	}
	for h := range n.flows {
		if n.flows[h].active {
			t.Errorf("flow %d still active after drain", h)
		}
	}
	for _, c := range comps {
		if c.End < c.Start {
			t.Fatalf("completion ends before start: %+v", c)
		}
	}
}

func TestCompletionsInTimeOrder(t *testing.T) {
	n, topo := testNet(t, Config{})
	for i := 0; i < 64; i++ {
		src := topo.AddrOf(topology.NodeID(i%4), i%8)
		dst := topo.AddrOf(topology.NodeID(4+i%4), (i+3)%8)
		if _, err := n.Start(src, dst, int64(1+i%7)*10_000_000, uint32(i), uint64(i), 0); err != nil {
			t.Fatal(err)
		}
	}
	comps := drainAll(t, n, time.Hour)
	for i := 1; i < len(comps); i++ {
		if comps[i].End < comps[i-1].End {
			t.Fatalf("completions out of order at %d: %v < %v", i, comps[i].End, comps[i-1].End)
		}
	}
}

func BenchmarkFairShareBurst(b *testing.B) {
	topo, err := topology.New(topology.Spec{Nodes: 64, NodesPerLeaf: 16, Spines: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := New(topo, Config{})
		for f := 0; f < 1024; f++ {
			src := topo.AddrOf(topology.NodeID(f%64), f%8)
			dst := topo.AddrOf(topology.NodeID((f+17)%64), f%8)
			if _, err := n.Start(src, dst, 50_000_000, uint32(f), uint64(f), 0); err != nil {
				b.Fatal(err)
			}
		}
		for {
			at, ok := n.NextEventTime()
			if !ok {
				break
			}
			n.AdvanceTo(at)
		}
	}
}
