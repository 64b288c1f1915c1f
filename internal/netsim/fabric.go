package netsim

import (
	"fmt"
	"hash/fnv"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// LinkID indexes a directed link in the fabric. With n endpoints, L leaves
// and S spines the index layout is:
//
//	[0, n)                 NIC up, addr a -> leaf
//	[n, 2n)                NIC down, leaf -> addr a
//	[2n, 2n+L*S)           leaf l -> spine s at 2n + l*S + s
//	[2n+L*S, 2n+2*L*S)     spine s -> leaf l at 2n+L*S + l*S + s
type LinkID int32

// LinkKind classifies fabric links.
type LinkKind uint8

// Link kinds. NIC links connect a GPU NIC to its leaf switch; fabric links
// connect leaves and spines.
const (
	LinkNICUp LinkKind = iota + 1
	LinkNICDown
	LinkLeafToSpine
	LinkSpineToLeaf
)

func (k LinkKind) String() string {
	switch k {
	case LinkNICUp:
		return "nic-up"
	case LinkNICDown:
		return "nic-down"
	case LinkLeafToSpine:
		return "leaf-to-spine"
	case LinkSpineToLeaf:
		return "spine-to-leaf"
	default:
		return fmt.Sprintf("LinkKind(%d)", uint8(k))
	}
}

// Link is a directed fabric link with a nominal capacity.
type Link struct {
	ID       LinkID
	Kind     LinkKind
	Capacity float64 // bytes per second
	// Switch is the switch this link is attached to (the leaf for NIC
	// links, the spine for leaf-to-spine, the destination leaf for
	// spine-to-leaf).
	Switch flow.SwitchID
}

// NICUp returns the id of addr's NIC-up link (addr -> its leaf).
func NICUp(addr flow.Addr) LinkID { return LinkID(addr) }

func nicDown(topo *topology.Topology, addr flow.Addr) LinkID {
	return LinkID(topo.Endpoints() + int(addr))
}

// Uplink returns the id of the link from leaf l to spine s.
func Uplink(topo *topology.Topology, leaf, spine int) LinkID {
	return LinkID(2*topo.Endpoints() + leaf*topo.Spines() + spine)
}

func downlink(topo *topology.Topology, leaf, spine int) LinkID {
	return LinkID(2*topo.Endpoints() + (topo.Leaves()+leaf)*topo.Spines() + spine)
}

// Links builds topo's directed link table, indexed by LinkID, with the
// capacities of its spec.
func Links(topo *topology.Topology) []Link {
	spec := topo.Spec()
	nicBps := spec.NICGbps * 1e9 / 8
	upBps := spec.UplinkGbps * 1e9 / 8
	n := topo.Endpoints()
	links := make([]Link, 2*n+2*topo.Leaves()*topo.Spines())
	for a := flow.Addr(0); int(a) < n; a++ {
		leaf := topo.LeafOf(topo.NodeOf(a))
		links[NICUp(a)] = Link{ID: NICUp(a), Kind: LinkNICUp, Capacity: nicBps, Switch: leaf}
		links[nicDown(topo, a)] = Link{ID: nicDown(topo, a), Kind: LinkNICDown, Capacity: nicBps, Switch: leaf}
	}
	for l := 0; l < topo.Leaves(); l++ {
		for s := 0; s < topo.Spines(); s++ {
			up, down := Uplink(topo, l, s), downlink(topo, l, s)
			links[up] = Link{ID: up, Kind: LinkLeafToSpine, Capacity: upBps, Switch: topo.SpineSwitch(s)}
			links[down] = Link{ID: down, Kind: LinkSpineToLeaf, Capacity: upBps, Switch: topo.LeafSwitch(l)}
		}
	}
	return links
}

// LinkInfo locates one directed link in the fabric: its kind plus either
// the NIC endpoint it serves (NIC links) or the leaf and spine switches it
// connects (fabric links).
type LinkInfo struct {
	Kind LinkKind
	// Addr is the NIC endpoint of NIC up/down links.
	Addr flow.Addr
	// Leaf and Spine are the switches a leaf<->spine link connects.
	Leaf, Spine flow.SwitchID
}

// Locate resolves a link id of topo; ok is false for ids outside the
// fabric. It is the inverse of the link index layout Route charges,
// letting a fault on a raw LinkID be mapped back to the physical component
// it degrades.
func Locate(topo *topology.Topology, id LinkID) (LinkInfo, bool) {
	i := int(id)
	n := topo.Endpoints()
	s := topo.Spines()
	ls := topo.Leaves() * s
	switch {
	case i < 0:
		return LinkInfo{}, false
	case i < n:
		return LinkInfo{Kind: LinkNICUp, Addr: flow.Addr(i)}, true
	case i < 2*n:
		return LinkInfo{Kind: LinkNICDown, Addr: flow.Addr(i - n)}, true
	case i < 2*n+ls:
		j := i - 2*n
		return LinkInfo{
			Kind:  LinkLeafToSpine,
			Leaf:  topo.LeafSwitch(j / s),
			Spine: topo.SpineSwitch(j % s),
		}, true
	case i < 2*n+2*ls:
		j := i - 2*n - ls
		return LinkInfo{
			Kind:  LinkSpineToLeaf,
			Leaf:  topo.LeafSwitch(j / s),
			Spine: topo.SpineSwitch(j % s),
		}, true
	default:
		return LinkInfo{}, false
	}
}

// Path is a routed fabric path between two endpoints.
type Path struct {
	// Switches in traversal order (what ERSPAN collection records).
	Switches []flow.SwitchID
	// Links in traversal order (what the network simulator charges).
	Links []LinkID
	// IntraNode is true for endpoint pairs on the same server: the
	// traffic rides NVLink and never reaches the fabric.
	IntraNode bool
}

// Route computes the ECMP path from src to dst over topo. label
// differentiates flows of the same endpoint pair (e.g. collective channels)
// so they can hash onto different spines, like distinct RoCE queue pairs
// would.
func Route(topo *topology.Topology, src, dst flow.Addr, label uint32) Path {
	srcNode, dstNode := topo.NodeOf(src), topo.NodeOf(dst)
	if srcNode == dstNode {
		return Path{IntraNode: true}
	}
	srcLeaf, dstLeaf := topo.LeafOf(srcNode), topo.LeafOf(dstNode)
	if srcLeaf == dstLeaf {
		return Path{
			Switches: []flow.SwitchID{srcLeaf},
			Links:    []LinkID{NICUp(src), nicDown(topo, dst)},
		}
	}
	spine := ecmpSpine(topo, src, dst, label)
	return Path{
		Switches: []flow.SwitchID{srcLeaf, topo.SpineSwitch(spine), dstLeaf},
		Links: []LinkID{
			NICUp(src), Uplink(topo, int(srcLeaf), spine),
			downlink(topo, int(dstLeaf), spine), nicDown(topo, dst),
		},
	}
}

func ecmpSpine(topo *topology.Topology, src, dst flow.Addr, label uint32) int {
	h := fnv.New32a()
	var buf [12]byte
	put32 := func(off int, v uint32) {
		buf[off] = byte(v >> 24)
		buf[off+1] = byte(v >> 16)
		buf[off+2] = byte(v >> 8)
		buf[off+3] = byte(v)
	}
	put32(0, uint32(src))
	put32(4, uint32(dst))
	put32(8, label)
	_, _ = h.Write(buf[:])
	return int(h.Sum32() % uint32(topo.Spines()))
}
