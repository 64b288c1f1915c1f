// Package topology maps a training fabric's addresses to its servers and
// switches: servers with one RDMA NIC per GPU under a two-tier leaf–spine
// (Clos) switch network, the address→server mapping a platform provider
// has about rented machines (Algorithm 1 of the paper), switch names, and
// the topo.json spec. The directed links and ECMP routing the simulator
// charges belong to package netsim.
package topology

import (
	"encoding/json"
	"fmt"
	"io"

	"github.com/llmprism/llmprism/internal/flow"
)

// NodeID identifies a physical server.
type NodeID int32

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
	nAddrs int
}

// New validates the spec and builds the fabric's address and switch
// mapping.
func New(spec Spec) (*Topology, error) {
	spec = spec.withDefaults()
	if spec.Nodes <= 0 {
		return nil, fmt.Errorf("topology: spec.Nodes must be positive, got %d", spec.Nodes)
	}
	if spec.Nodes*spec.GPUsPerNode > 1<<24 {
		return nil, fmt.Errorf("topology: %d endpoints exceed the 2^24 address space", spec.Nodes*spec.GPUsPerNode)
	}
	return &Topology{
		spec:   spec,
		leaves: (spec.Nodes + spec.NodesPerLeaf - 1) / spec.NodesPerLeaf,
		nAddrs: spec.Nodes * spec.GPUsPerNode,
	}, nil
}

// Spec returns the (defaulted) spec the topology was built from.
func (t *Topology) Spec() Spec { return t.spec }

// Nodes returns the number of servers.
func (t *Topology) Nodes() int { return t.spec.Nodes }

// Endpoints returns the total number of NIC endpoints.
func (t *Topology) Endpoints() int { return t.nAddrs }

// Spines returns the number of spine switches.
func (t *Topology) Spines() int { return t.spec.Spines }

// Leaves returns the number of leaf switches.
func (t *Topology) Leaves() int { return t.leaves }

// AddrOf returns the NIC address of (node, gpu).
func (t *Topology) AddrOf(node NodeID, gpu int) flow.Addr {
	return flow.Addr(int(node)*t.spec.GPUsPerNode + gpu)
}

// NodeOf resolves a NIC address to its server. This is the provider-visible
// mapping used by Algorithm 1.
func (t *Topology) NodeOf(a flow.Addr) NodeID {
	return NodeID(int(a) / t.spec.GPUsPerNode)
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
