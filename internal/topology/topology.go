// Package topology models the physical training fabric: servers with one
// RDMA NIC per GPU, a two-tier leaf–spine (Clos) switch network with ECMP
// routing, and the address mapping that lets the platform provider resolve
// a flow endpoint to its physical server.
//
// The topology plays two roles in the reproduction:
//
//   - The platform side (simulator) routes every transfer over it, yielding
//     the per-flow switch lists and shared-link contention that the collected
//     flow records expose.
//   - The analysis side (Algorithm 1 of the paper) only uses the
//     address→server mapping, which is exactly the information a provider
//     has about rented machines.
package topology

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"

	"github.com/llmprism/llmprism/internal/flow"
)

// NodeID identifies a physical server.
type NodeID int32

// LinkID indexes a directed link in the fabric.
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

// Spec describes a fabric. Zero fields take the documented defaults.
type Spec struct {
	// Nodes is the number of servers. Required.
	Nodes int `json:"nodes"`
	// GPUsPerNode is the number of GPUs (and NICs) per server. Default 8.
	GPUsPerNode int `json:"gpus_per_node"`
	// NodesPerLeaf is the number of servers attached to one leaf switch.
	// Default 16.
	NodesPerLeaf int `json:"nodes_per_leaf"`
	// Spines is the number of spine switches. Default 8.
	Spines int `json:"spines"`
	// NICGbps is the NIC line rate in Gb/s. Default 200.
	NICGbps float64 `json:"nic_gbps"`
	// UplinkGbps is the capacity of each leaf<->spine link in Gb/s.
	// Default 800.
	UplinkGbps float64 `json:"uplink_gbps"`
}

func (s Spec) withDefaults() Spec {
	if s.GPUsPerNode <= 0 {
		s.GPUsPerNode = 8
	}
	if s.NodesPerLeaf <= 0 {
		s.NodesPerLeaf = 16
	}
	if s.Spines <= 0 {
		s.Spines = 8
	}
	if s.NICGbps <= 0 {
		s.NICGbps = 200
	}
	if s.UplinkGbps <= 0 {
		s.UplinkGbps = 800
	}
	return s
}

// Topology is an immutable fabric instance.
type Topology struct {
	spec   Spec
	leaves int
	links  []Link
	// Link index layout:
	//   [0, n)                 NIC up, addr a -> leaf
	//   [n, 2n)                NIC down, leaf -> addr a
	//   [2n, 2n+L*S)           leaf l -> spine s at 2n + l*S + s
	//   [2n+L*S, 2n+2*L*S)     spine s -> leaf l at 2n+L*S + l*S + s
	nAddrs int
}

// New validates the spec and builds the fabric.
func New(spec Spec) (*Topology, error) {
	spec = spec.withDefaults()
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("topology: spec.Nodes must be positive, got %d", spec.Nodes)
	}
	if spec.Nodes*spec.GPUsPerNode > 1<<24 {
		return nil, fmt.Errorf("topology: %d endpoints exceed the 2^24 address space", spec.Nodes*spec.GPUsPerNode)
	}
	t := &Topology{
		spec:   spec,
		leaves: (spec.Nodes + spec.NodesPerLeaf - 1) / spec.NodesPerLeaf,
		nAddrs: spec.Nodes * spec.GPUsPerNode,
	}
	nicBps := spec.NICGbps * 1e9 / 8
	upBps := spec.UplinkGbps * 1e9 / 8
	t.links = make([]Link, 0, 2*t.nAddrs+2*t.leaves*spec.Spines)
	for a := 0; a < t.nAddrs; a++ {
		leaf := t.LeafOf(t.NodeOfIndex(a))
		t.links = append(t.links, Link{ID: LinkID(a), Kind: LinkNICUp, Capacity: nicBps, Switch: leaf})
	}
	for a := 0; a < t.nAddrs; a++ {
		leaf := t.LeafOf(t.NodeOfIndex(a))
		t.links = append(t.links, Link{ID: LinkID(t.nAddrs + a), Kind: LinkNICDown, Capacity: nicBps, Switch: leaf})
	}
	for l := 0; l < t.leaves; l++ {
		for s := 0; s < spec.Spines; s++ {
			id := LinkID(2*t.nAddrs + l*spec.Spines + s)
			t.links = append(t.links, Link{ID: id, Kind: LinkLeafToSpine, Capacity: upBps, Switch: t.SpineSwitch(s)})
		}
	}
	for l := 0; l < t.leaves; l++ {
		for s := 0; s < spec.Spines; s++ {
			id := LinkID(2*t.nAddrs + t.leaves*spec.Spines + l*spec.Spines + s)
			t.links = append(t.links, Link{ID: id, Kind: LinkSpineToLeaf, Capacity: upBps, Switch: t.LeafSwitch(l)})
		}
	}
	return t, nil
}

// Spec returns the (defaulted) spec the topology was built from.
func (t *Topology) Spec() Spec { return t.spec }

// Nodes returns the number of servers.
func (t *Topology) Nodes() int { return t.spec.Nodes }

// Endpoints returns the total number of NIC endpoints.
func (t *Topology) Endpoints() int { return t.nAddrs }

// Spines returns the number of spine switches.
func (t *Topology) Spines() int { return t.spec.Spines }

// Links returns the full directed link table. The returned slice must not
// be modified.
func (t *Topology) Links() []Link { return t.links }

// AddrOf returns the NIC address of (node, gpu).
func (t *Topology) AddrOf(node NodeID, gpu int) flow.Addr {
	return flow.Addr(int(node)*t.spec.GPUsPerNode + gpu)
}

// NodeOf resolves a NIC address to its server. This is the provider-visible
// mapping used by Algorithm 1.
func (t *Topology) NodeOf(a flow.Addr) NodeID {
	return NodeID(int(a) / t.spec.GPUsPerNode)
}

// NodeOfIndex is NodeOf for a raw integer endpoint index.
func (t *Topology) NodeOfIndex(a int) NodeID {
	return NodeID(a / t.spec.GPUsPerNode)
}

// GPUOf resolves a NIC address to the GPU index within its server.
func (t *Topology) GPUOf(a flow.Addr) int {
	return int(a) % t.spec.GPUsPerNode
}

// LeafOf returns the leaf switch of a server.
func (t *Topology) LeafOf(n NodeID) flow.SwitchID {
	return flow.SwitchID(int(n) / t.spec.NodesPerLeaf)
}

// LeafSwitch returns the switch ID of leaf l.
func (t *Topology) LeafSwitch(l int) flow.SwitchID { return flow.SwitchID(l) }

// SpineSwitch returns the switch ID of spine s.
func (t *Topology) SpineSwitch(s int) flow.SwitchID {
	return flow.SwitchID(t.leaves + s)
}

// IsSpine reports whether sw is a spine switch.
func (t *Topology) IsSpine(sw flow.SwitchID) bool {
	return int(sw) >= t.leaves && int(sw) < t.leaves+t.spec.Spines
}

// SwitchName renders a human-readable switch name ("leaf-3", "spine-1").
func (t *Topology) SwitchName(sw flow.SwitchID) string {
	if t.IsSpine(sw) {
		return fmt.Sprintf("spine-%d", int(sw)-t.leaves)
	}
	return fmt.Sprintf("leaf-%d", int(sw))
}

// LinkInfo locates one directed link in the fabric: its kind plus either
// the NIC endpoint it serves (NIC links) or the leaf and spine switches it
// connects (fabric links). It is the inverse of the link index layout the
// router charges, letting a fault on a raw LinkID be mapped back to the
// physical component it degrades.
type LinkInfo struct {
	Kind LinkKind
	// Addr is the NIC endpoint of NIC up/down links.
	Addr flow.Addr
	// Leaf and Spine are the switches a leaf<->spine link connects.
	Leaf, Spine flow.SwitchID
}

// LinkInfo resolves a link id; ok is false for ids outside the fabric.
func (t *Topology) LinkInfo(id LinkID) (LinkInfo, bool) {
	i := int(id)
	n := t.nAddrs
	ls := t.leaves * t.spec.Spines
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
			Leaf:  t.LeafSwitch(j / t.spec.Spines),
			Spine: t.SpineSwitch(j % t.spec.Spines),
		}, true
	case i < 2*n+2*ls:
		j := i - 2*n - ls
		return LinkInfo{
			Kind:  LinkSpineToLeaf,
			Leaf:  t.LeafSwitch(j / t.spec.Spines),
			Spine: t.SpineSwitch(j % t.spec.Spines),
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

// Route computes the ECMP path from src to dst. label differentiates flows
// of the same endpoint pair (e.g. collective channels) so they can hash
// onto different spines, like distinct RoCE queue pairs would.
func (t *Topology) Route(src, dst flow.Addr, label uint32) Path {
	srcNode, dstNode := t.NodeOf(src), t.NodeOf(dst)
	if srcNode == dstNode {
		return Path{IntraNode: true}
	}
	srcLeaf, dstLeaf := t.LeafOf(srcNode), t.LeafOf(dstNode)
	nicUp := LinkID(int(src))
	nicDown := LinkID(t.nAddrs + int(dst))
	if srcLeaf == dstLeaf {
		return Path{
			Switches: []flow.SwitchID{srcLeaf},
			Links:    []LinkID{nicUp, nicDown},
		}
	}
	spine := t.ecmpSpine(src, dst, label)
	up := LinkID(2*t.nAddrs + int(srcLeaf)*t.spec.Spines + spine)
	down := LinkID(2*t.nAddrs + t.leaves*t.spec.Spines + int(dstLeaf)*t.spec.Spines + spine)
	return Path{
		Switches: []flow.SwitchID{srcLeaf, t.SpineSwitch(spine), dstLeaf},
		Links:    []LinkID{nicUp, up, down, nicDown},
	}
}

func (t *Topology) ecmpSpine(src, dst flow.Addr, label uint32) int {
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
	return int(h.Sum32() % uint32(t.spec.Spines))
}

// WriteJSON persists the topology spec.
func (t *Topology) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(t.spec); err != nil {
		return fmt.Errorf("topology: encode spec: %w", err)
	}
	return nil
}

// ReadJSON loads a topology from a spec written by WriteJSON.
func ReadJSON(r io.Reader) (*Topology, error) {
	var spec Spec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("topology: decode spec: %w", err)
	}
	return New(spec)
}
