package topology

import (
	"bytes"
	"testing"
	"testing/quick"
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
