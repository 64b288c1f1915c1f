package topology

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/llmprism/llmprism/internal/flow"
)

func testTopo(t *testing.T, spec Spec) *Topology {
	t.Helper()
	topo, err := New(spec)
	if err != nil {
		t.Fatalf("New(%+v): %v", spec, err)
	}
	return topo
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Spec{}); err == nil {
		t.Error("New with zero nodes should fail")
	}
	if _, err := New(Spec{Nodes: 1 << 22, GPUsPerNode: 8}); err == nil {
		t.Error("New exceeding address space should fail")
	}
}

func TestDefaults(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 4})
	spec := topo.Spec()
	if spec.GPUsPerNode != 8 || spec.NodesPerLeaf != 16 || spec.Spines != 8 {
		t.Errorf("defaults not applied: %+v", spec)
	}
	if topo.Endpoints() != 32 {
		t.Errorf("Endpoints = %d, want 32", topo.Endpoints())
	}
	if topo.leaves != 1 {
		t.Errorf("leaves = %d, want 1", topo.leaves)
	}
}

func TestAddrMappingRoundTrip(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 360})
	f := func(rawNode, rawGPU uint16) bool {
		node := NodeID(int(rawNode) % 360)
		gpu := int(rawGPU) % 8
		a := topo.AddrOf(node, gpu)
		return topo.NodeOf(a) == node && topo.GPUOf(a) == gpu && int(a) < topo.Endpoints()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLeafAssignment(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 48, NodesPerLeaf: 16})
	if topo.leaves != 3 {
		t.Fatalf("leaves = %d, want 3", topo.leaves)
	}
	if topo.LeafOf(0) != 0 || topo.LeafOf(15) != 0 || topo.LeafOf(16) != 1 || topo.LeafOf(47) != 2 {
		t.Error("LeafOf boundaries wrong")
	}
}

func TestSwitchNaming(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 48, NodesPerLeaf: 16, Spines: 4})
	if got := topo.SwitchName(topo.LeafSwitch(2)); got != "leaf-2" {
		t.Errorf("SwitchName leaf = %q", got)
	}
	if got := topo.SwitchName(topo.SpineSwitch(1)); got != "spine-1" {
		t.Errorf("SwitchName spine = %q", got)
	}
	if topo.IsSpine(topo.LeafSwitch(0)) || !topo.IsSpine(topo.SpineSwitch(0)) {
		t.Error("IsSpine misclassifies")
	}
	if n := topo.leaves + topo.Spines(); n != 7 {
		t.Errorf("switches = %d, want 7", n)
	}
}

func TestRouteIntraNode(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 4})
	p := topo.Route(topo.AddrOf(1, 0), topo.AddrOf(1, 7), 0)
	if !p.IntraNode || len(p.Switches) != 0 || len(p.Links) != 0 {
		t.Errorf("intra-node path should be empty, got %+v", p)
	}
}

func TestRouteSameLeaf(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 32, NodesPerLeaf: 16})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(1, 0)
	p := topo.Route(src, dst, 0)
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
	topo := testTopo(t, Spec{Nodes: 64, NodesPerLeaf: 16, Spines: 4})
	src, dst := topo.AddrOf(0, 3), topo.AddrOf(40, 3)
	p := topo.Route(src, dst, 0)
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
	topo := testTopo(t, Spec{Nodes: 64, NodesPerLeaf: 16, Spines: 8})
	src, dst := topo.AddrOf(0, 0), topo.AddrOf(32, 0)
	p1 := topo.Route(src, dst, 7)
	p2 := topo.Route(src, dst, 7)
	if p1.Switches[1] != p2.Switches[1] {
		t.Error("ECMP is not deterministic for identical label")
	}
	spines := make(map[flow.SwitchID]bool)
	for label := uint32(0); label < 64; label++ {
		spines[topo.Route(src, dst, label).Switches[1]] = true
	}
	if len(spines) < 4 {
		t.Errorf("ECMP spread %d spines over 64 labels, want >= 4", len(spines))
	}
}

// Property: every routed link exists and the path charges NIC-up of src and
// NIC-down of dst.
func TestRouteLinksValid(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 96, NodesPerLeaf: 16, Spines: 4})
	links := topo.Links()
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		src := flow.Addr(rng.Intn(topo.Endpoints()))
		dst := flow.Addr(rng.Intn(topo.Endpoints()))
		if topo.NodeOf(src) == topo.NodeOf(dst) {
			continue
		}
		p := topo.Route(src, dst, uint32(i))
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
// via LinkInfo, back to the endpoints/switches the route actually used.
func TestLinkInfoInvertsRouting(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 96, NodesPerLeaf: 16, Spines: 4})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 300; i++ {
		src := flow.Addr(rng.Intn(topo.Endpoints()))
		dst := flow.Addr(rng.Intn(topo.Endpoints()))
		if topo.NodeOf(src) == topo.NodeOf(dst) {
			continue
		}
		p := topo.Route(src, dst, uint32(i))
		first, ok := topo.LinkInfo(p.Links[0])
		if !ok || first.Kind != LinkNICUp || first.Addr != src {
			t.Fatalf("first link info = %+v ok=%v, want NIC-up of %v", first, ok, src)
		}
		last, ok := topo.LinkInfo(p.Links[len(p.Links)-1])
		if !ok || last.Kind != LinkNICDown || last.Addr != dst {
			t.Fatalf("last link info = %+v ok=%v, want NIC-down of %v", last, ok, dst)
		}
		if len(p.Switches) == 3 { // cross-leaf: leaf, spine, leaf
			up, ok := topo.LinkInfo(p.Links[1])
			if !ok || up.Kind != LinkLeafToSpine || up.Leaf != p.Switches[0] || up.Spine != p.Switches[1] {
				t.Fatalf("uplink info = %+v ok=%v, want leaf %v -> spine %v", up, ok, p.Switches[0], p.Switches[1])
			}
			down, ok := topo.LinkInfo(p.Links[2])
			if !ok || down.Kind != LinkSpineToLeaf || down.Spine != p.Switches[1] || down.Leaf != p.Switches[2] {
				t.Fatalf("downlink info = %+v ok=%v, want spine %v -> leaf %v", down, ok, p.Switches[1], p.Switches[2])
			}
		}
	}
	if _, ok := topo.LinkInfo(-1); ok {
		t.Error("negative link id resolved")
	}
	if _, ok := topo.LinkInfo(LinkID(len(topo.Links()))); ok {
		t.Error("out-of-range link id resolved")
	}
}

func TestLinkTableLayout(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 32, NodesPerLeaf: 16, Spines: 4})
	links := topo.Links()
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

func TestJSONRoundTrip(t *testing.T) {
	topo := testTopo(t, Spec{Nodes: 100, GPUsPerNode: 4, NodesPerLeaf: 10, Spines: 6, NICGbps: 100, UplinkGbps: 400})
	var buf bytes.Buffer
	if err := topo.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if got.Spec() != topo.Spec() {
		t.Errorf("round trip spec = %+v, want %+v", got.Spec(), topo.Spec())
	}
}

func TestReadJSONError(t *testing.T) {
	if _, err := ReadJSON(bytes.NewBufferString("{garbage")); err == nil {
		t.Error("ReadJSON of garbage should fail")
	}
}

func TestLinkKindString(t *testing.T) {
	if LinkNICUp.String() != "nic-up" || LinkKind(99).String() == "" {
		t.Error("LinkKind.String misbehaves")
	}
}

func BenchmarkRoute(b *testing.B) {
	topo, err := New(Spec{Nodes: 360})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		topo.Route(flow.Addr(i%2880), flow.Addr((i*7+13)%2880), uint32(i))
	}
}
