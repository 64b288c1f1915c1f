package netsim

import (
	"math/rand"
	"testing"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

func fabricTopo(t *testing.T, spec topology.Spec) *topology.Topology {
	t.Helper()
	topo, err := topology.New(spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	return topo
}

func TestRouteIntraNode(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 4})
	p := Route(topo, topo.AddrOf(1, 0), topo.AddrOf(1, 7), 0)
	if !p.IntraNode || len(p.Switches) != 0 || len(p.Links) != 0 {
		t.Errorf("intra-node path should be empty, got %+v", p)
	}
}

func TestRouteSameLeaf(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 32, NodesPerLeaf: 16})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(1, 0)
	p := Route(topo, src, dst, 0)
	if p.IntraNode {
		t.Fatal("cross-node path marked intra-node")
	}
	if len(p.Switches) != 1 || p.Switches[0] != topo.LeafSwitch(0) {
		t.Errorf("same-leaf path switches = %v, want [leaf-0]", p.Switches)
	}
	if len(p.Links) != 2 {
		t.Errorf("same-leaf path links = %v, want 2 links", p.Links)
	}
}

func TestRouteCrossLeaf(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 64, NodesPerLeaf: 16, Spines: 4})
	src, dst := topo.AddrOf(0, 3), topo.AddrOf(40, 3)
	p := Route(topo, src, dst, 0)
	if len(p.Switches) != 3 {
		t.Fatalf("cross-leaf path switches = %v, want 3 entries", p.Switches)
	}
	if p.Switches[0] != topo.LeafSwitch(0) || p.Switches[2] != topo.LeafSwitch(2) {
		t.Errorf("cross-leaf endpoints wrong: %v", p.Switches)
	}
	if !topo.IsSpine(p.Switches[1]) {
		t.Errorf("middle switch %v is not a spine", p.Switches[1])
	}
	if len(p.Links) != 4 {
		t.Errorf("cross-leaf path has %d links, want 4", len(p.Links))
	}
}

func TestRouteECMPDeterministicAndSpreading(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 64, NodesPerLeaf: 16, Spines: 8})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(32, 0)
	p1 := Route(topo, src, dst, 7)
	p2 := Route(topo, src, dst, 7)
	if p1.Switches[1] != p2.Switches[1] {
		t.Error("ECMP is not deterministic for identical label")
	}
	spines := make(map[flow.SwitchID]bool)
	for label := uint32(0); label < 64; label++ {
		spines[Route(topo, src, dst, label).Switches[1]] = true
	}
	if len(spines) < 4 {
		t.Errorf("ECMP spread %d spines over 64 labels, want >= 4", len(spines))
	}
}

// Property: every routed link exists and the path charges NIC-up of src and
// NIC-down of dst.
func TestRouteLinksValid(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 96, NodesPerLeaf: 16, Spines: 4})
	links := Links(topo)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		src := flow.Addr(rng.Intn(topo.Endpoints()))
		dst := flow.Addr(rng.Intn(topo.Endpoints()))
		if topo.NodeOf(src) == topo.NodeOf(dst) {
			continue
		}
		p := Route(topo, src, dst, uint32(i))
		if links[p.Links[0]].Kind != LinkNICUp || LinkID(int(src)) != p.Links[0] {
			t.Fatalf("path %v does not start at src NIC-up", p.Links)
		}
		last := p.Links[len(p.Links)-1]
		if links[last].Kind != LinkNICDown {
			t.Fatalf("path %v does not end at NIC-down", p.Links)
		}
		for _, l := range p.Links {
			if int(l) >= len(links) || links[l].ID != l {
				t.Fatalf("link %d not in table", l)
			}
		}
	}
}

// TestLinkInfoInvertsRouting: every link a routed path charges resolves,
// via Locate, back to the endpoints/switches the route actually used.
func TestLinkInfoInvertsRouting(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 96, NodesPerLeaf: 16, Spines: 4})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		src := flow.Addr(rng.Intn(topo.Endpoints()))
		dst := flow.Addr(rng.Intn(topo.Endpoints()))
		if topo.NodeOf(src) == topo.NodeOf(dst) {
			continue
		}
		p := Route(topo, src, dst, uint32(i))
		first, ok := Locate(topo, p.Links[0])
		if !ok || first.Kind != LinkNICUp || first.Addr != src {
			t.Fatalf("first link info = %+v ok=%v, want NIC-up of %v", first, ok, src)
		}
		last, ok := Locate(topo, p.Links[len(p.Links)-1])
		if !ok || last.Kind != LinkNICDown || last.Addr != dst {
			t.Fatalf("last link info = %+v ok=%v, want NIC-down of %v", last, ok, dst)
		}
		if len(p.Switches) == 3 { // cross-leaf: leaf, spine, leaf
			up, ok := Locate(topo, p.Links[1])
			if !ok || up.Kind != LinkLeafToSpine || up.Leaf != p.Switches[0] || up.Spine != p.Switches[1] {
				t.Fatalf("uplink info = %+v ok=%v, want leaf %v -> spine %v", up, ok, p.Switches[0], p.Switches[1])
			}
			down, ok := Locate(topo, p.Links[2])
			if !ok || down.Kind != LinkSpineToLeaf || down.Spine != p.Switches[1] || down.Leaf != p.Switches[2] {
				t.Fatalf("downlink info = %+v ok=%v, want spine %v -> leaf %v", down, ok, p.Switches[1], p.Switches[2])
			}
		}
	}
	if _, ok := Locate(topo, -1); ok {
		t.Error("negative link id resolved")
	}
	if _, ok := Locate(topo, LinkID(len(Links(topo)))); ok {
		t.Error("out-of-range link id resolved")
	}
}

func TestLinkTableLayout(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 32, NodesPerLeaf: 16, Spines: 4})
	links := Links(topo)
	wantLen := 2*32*8 + 2*2*4
	if len(links) != wantLen {
		t.Fatalf("link table length = %d, want %d", len(links), wantLen)
	}
	counts := make(map[LinkKind]int)
	for i, l := range links {
		if int(l.ID) != i {
			t.Fatalf("link %d has ID %d", i, l.ID)
		}
		if l.Capacity <= 0 {
			t.Fatalf("link %d has non-positive capacity", i)
		}
		counts[l.Kind]++
	}
	if counts[LinkNICUp] != 256 || counts[LinkNICDown] != 256 ||
		counts[LinkLeafToSpine] != 8 || counts[LinkSpineToLeaf] != 8 {
		t.Errorf("link kind counts = %v", counts)
	}
}

// TestLinkTableLocatesEveryLink: every id of the table resolves, via
// Locate, to that link's own kind and switch, and NICUp and Uplink name the
// table's links for their endpoint and switch pair.
func TestLinkTableLocatesEveryLink(t *testing.T) {
	topo := fabricTopo(t, topology.Spec{Nodes: 40, GPUsPerNode: 4, NodesPerLeaf: 16, Spines: 3})
	links := Links(topo)
	for _, l := range links {
		info, ok := Locate(topo, l.ID)
		if !ok || info.Kind != l.Kind {
			t.Fatalf("link %d (%v) located as %+v ok=%v", l.ID, l.Kind, info, ok)
		}
		var sw flow.SwitchID
		switch l.Kind {
		case LinkNICUp, LinkNICDown:
			sw = topo.LeafOf(topo.NodeOf(info.Addr))
		case LinkLeafToSpine:
			sw = info.Spine
		case LinkSpineToLeaf:
			sw = info.Leaf
		}
		if sw != l.Switch {
			t.Fatalf("link %d (%v) is on switch %v, Locate gives %+v", l.ID, l.Kind, l.Switch, info)
		}
	}
	for a := flow.Addr(0); int(a) < topo.Endpoints(); a++ {
		if info, _ := Locate(topo, NICUp(a)); links[NICUp(a)].Kind != LinkNICUp || info.Addr != a {
			t.Fatalf("NICUp(%v) = %d is %+v", a, NICUp(a), info)
		}
	}
	for l := 0; l < topo.Leaves(); l++ {
		for s := 0; s < topo.Spines(); s++ {
			id := Uplink(topo, l, s)
			info, _ := Locate(topo, id)
			if links[id].Kind != LinkLeafToSpine || info.Leaf != topo.LeafSwitch(l) || info.Spine != topo.SpineSwitch(s) {
				t.Fatalf("Uplink(%d, %d) = %d is %+v", l, s, id, info)
			}
		}
	}
}

func TestLinkKindString(t *testing.T) {
	if LinkNICUp.String() != "nic-up" || LinkKind(99).String() == "" {
		t.Error("LinkKind.String misbehaves")
	}
}

func BenchmarkRoute(b *testing.B) {
	topo, err := topology.New(topology.Spec{Nodes: 360})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Route(topo, flow.Addr(i%2880), flow.Addr((i*7+13)%2880), uint32(i))
	}
}
