// Package netsim is a fluid (rate-based) flow-level network simulator over
// a topology fabric. It substitutes for the RDMA network of the production
// platform the paper measures, and it owns the fabric's link model: the
// directed link table, its numbering and ECMP routing (fabric.go).
//
// Model: each active flow receives, on every link of its path, an equal
// share of the link's effective capacity; the flow's rate is the minimum
// share along its path (per-link processor sharing — max-min fairness
// without slack redistribution, the standard fluid abstraction for long
// RDMA flows). Rates change only when a flow starts or finishes or a
// capacity fault is injected; remaining bytes are settled lazily at those
// instants, and projected completion times are tracked in a priority queue
// with generation-stamped lazy invalidation.
//
// ModeAnalytic freezes each flow's rate at admission (no reaction to later
// arrivals), trading fidelity for speed; the A1 ablation quantifies the
// difference.
package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// Mode selects the rate model.
type Mode uint8

// Rate models.
const (
	// ModeFairShare recomputes equal-share rates on every arrival and
	// departure (default).
	ModeFairShare Mode = iota
	// ModeAnalytic fixes each flow's rate at admission time.
	ModeAnalytic
)

// Config parameterizes a Network.
type Config struct {
	// Mode selects the rate model. Default ModeFairShare.
	Mode Mode
	// BaseLatency is the per-flow startup latency (propagation + RDMA
	// protocol overhead). Default 8µs.
	BaseLatency time.Duration
	// NVLinkGBps is the intra-node transfer bandwidth in gigabytes/s used
	// for same-server transfers that never reach the fabric. Default 400.
	NVLinkGBps float64
}

func (c Config) withDefaults() Config {
	if c.BaseLatency <= 0 {
		c.BaseLatency = 8 * time.Microsecond
	}
	if c.NVLinkGBps <= 0 {
		c.NVLinkGBps = 400
	}
	return c
}

// Handle identifies an active flow inside the Network.
type Handle int32

// Completion reports a finished flow.
type Completion struct {
	Handle   Handle
	Tag      uint64
	Src, Dst flow.Addr
	Bytes    int64
	Start    time.Duration // sim time the flow was admitted
	End      time.Duration // sim time the last byte arrived
	// Switches is the routed switch path (empty for intra-node flows).
	Switches []flow.SwitchID
	// IntraNode is true for same-server transfers.
	IntraNode bool
}

type flowState struct {
	active    bool
	tag       uint64
	src, dst  flow.Addr
	bytes     int64
	remaining float64 // bytes left to drain
	rate      float64 // bytes/sec currently allocated
	updatedAt float64 // sim seconds of the last settle
	startSec  float64
	gen       uint32
	links     []LinkID
	switches  []flow.SwitchID
	intraNode bool
}

type heapEntry struct {
	at     float64
	handle Handle
	gen    uint32
}

type completionHeap []heapEntry

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].handle < h[j].handle
}
func (h completionHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x interface{}) { *h = append(*h, x.(heapEntry)) }
func (h *completionHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// Network simulates flows over a topology. Construct with New.
type Network struct {
	topo      *topology.Topology
	cfg       Config
	links     []Link
	capacity  []float64 // effective capacity per link, bytes/sec
	baseCap   []float64
	flows     []flowState
	freeList  []Handle
	linkFlows [][]Handle
	heap      completionHeap
	now       float64 // sim seconds
}

// New builds a Network over topo.
func New(topo *topology.Topology, cfg Config) *Network {
	cfg = cfg.withDefaults()
	links := Links(topo)
	n := &Network{
		topo:      topo,
		cfg:       cfg,
		links:     links,
		capacity:  make([]float64, len(links)),
		baseCap:   make([]float64, len(links)),
		linkFlows: make([][]Handle, len(links)),
	}
	for i, l := range links {
		n.capacity[i] = l.Capacity
		n.baseCap[i] = l.Capacity
	}
	return n
}

// Now returns the current simulation time.
func (n *Network) Now() time.Duration { return secToDur(n.now) }

// Start admits a flow at sim time `at` (which must be >= the time of the
// last processed event). label differentiates ECMP paths. Intra-node pairs
// are modelled as NVLink transfers that never touch the fabric.
func (n *Network) Start(src, dst flow.Addr, bytes int64, label uint32, tag uint64, at time.Duration) (Handle, error) {
	atSec := durToSec(at)
	// 2ns tolerance: callers feed back Completion.End values that were
	// rounded to the nanosecond, so they can sit just below the float
	// clock.
	if atSec < n.now-2e-9 {
		return 0, fmt.Errorf("netsim: Start at %v is before current sim time %v", at, n.Now())
	}
	if atSec > n.now {
		n.now = atSec
	}
	if bytes <= 0 {
		bytes = 1
	}

	h := n.alloc()
	st := &n.flows[h]
	st.active = true
	st.tag = tag
	st.src, st.dst = src, dst
	st.bytes = bytes
	st.remaining = float64(bytes)
	st.rate = 0 // recycled entries must not inherit a stale rate
	st.startSec = atSec
	st.updatedAt = atSec + n.cfg.BaseLatency.Seconds()
	st.gen++

	path := Route(n.topo, src, dst, label)
	st.intraNode = path.IntraNode
	st.links = path.Links
	st.switches = path.Switches

	if path.IntraNode {
		st.rate = n.cfg.NVLinkGBps * 1e9
		n.push(h)
		return h, nil
	}

	for _, l := range st.links {
		n.linkFlows[l] = append(n.linkFlows[l], h)
	}
	if n.cfg.Mode == ModeAnalytic {
		st.rate = n.pathRate(st.links)
		n.push(h)
		return h, nil
	}
	n.recomputeAround(st.links)
	return h, nil
}

// pathRate returns the equal-share rate along links given current counts.
func (n *Network) pathRate(links []LinkID) float64 {
	rate := math.Inf(1)
	for _, l := range links {
		share := n.capacity[l] / float64(len(n.linkFlows[l]))
		if share < rate {
			rate = share
		}
	}
	if math.IsInf(rate, 1) {
		return 0
	}
	return rate
}

// recomputeAround settles and re-rates every active flow that shares a link
// with the given set, including flows on those links themselves.
func (n *Network) recomputeAround(links []LinkID) {
	seen := make(map[Handle]struct{})
	for _, l := range links {
		for _, h := range n.linkFlows[l] {
			seen[h] = struct{}{}
		}
	}
	for h := range seen {
		n.reRate(h)
	}
}

func (n *Network) reRate(h Handle) {
	st := &n.flows[h]
	if !st.active || st.intraNode {
		return
	}
	newRate := n.pathRate(st.links)
	if st.rate > 0 && math.Abs(newRate-st.rate) < 1e-9*st.rate {
		return
	}
	n.settle(h)
	st.rate = newRate
	st.gen++
	n.push(h)
}

// settle drains remaining bytes up to n.now at the current rate.
func (n *Network) settle(h Handle) {
	st := &n.flows[h]
	if n.now > st.updatedAt {
		st.remaining -= st.rate * (n.now - st.updatedAt)
		if st.remaining < 0 {
			st.remaining = 0
		}
		st.updatedAt = n.now
	}
}

func (n *Network) push(h Handle) {
	st := &n.flows[h]
	var at float64
	if st.rate <= 0 {
		return // stalled: no completion until capacity returns
	}
	at = st.updatedAt + st.remaining/st.rate
	heap.Push(&n.heap, heapEntry{at: at, handle: h, gen: st.gen})
}

// NextEventTime returns the earliest projected flow completion.
// ok is false when no flow is in flight (or all are stalled).
func (n *Network) NextEventTime() (time.Duration, bool) {
	n.skim()
	if len(n.heap) == 0 {
		return 0, false
	}
	return secToDur(n.heap[0].at), true
}

// skim discards stale heap entries.
func (n *Network) skim() {
	for len(n.heap) > 0 {
		top := n.heap[0]
		st := &n.flows[top.handle]
		if st.active && st.gen == top.gen {
			return
		}
		heap.Pop(&n.heap)
	}
}

// AdvanceTo advances the simulation clock to `at`, completing every flow
// whose completion falls at or before it, in completion order. Completions
// may shift other projected completions (rates rise when flows leave), but
// never to before the popped completion, so ordering is preserved.
func (n *Network) AdvanceTo(at time.Duration) []Completion {
	atSec := durToSec(at)
	var out []Completion
	for {
		n.skim()
		// Tolerance of 1ns: NextEventTime rounds projections to the
		// nanosecond, so an exact-time AdvanceTo must still pop the
		// completion that produced the rounded value.
		if len(n.heap) == 0 || n.heap[0].at > atSec+1e-9 {
			break
		}
		entry := heap.Pop(&n.heap).(heapEntry)
		if entry.at > n.now {
			n.now = entry.at
		}
		out = append(out, n.complete(entry.handle))
	}
	if atSec > n.now {
		n.now = atSec
	}
	return out
}

func (n *Network) complete(h Handle) Completion {
	st := &n.flows[h]
	n.settle(h)
	st.active = false
	c := Completion{
		Handle:    h,
		Tag:       st.tag,
		Src:       st.src,
		Dst:       st.dst,
		Bytes:     st.bytes,
		Start:     secToDur(st.startSec),
		End:       secToDur(n.now),
		Switches:  st.switches,
		IntraNode: st.intraNode,
	}
	if !st.intraNode {
		for _, l := range st.links {
			n.removeFromLink(l, h)
		}
		if n.cfg.Mode == ModeFairShare {
			n.recomputeAround(st.links)
		}
	}
	st.links = nil
	st.switches = nil
	n.freeList = append(n.freeList, h)
	return c
}

func (n *Network) removeFromLink(l LinkID, h Handle) {
	flows := n.linkFlows[l]
	for i, fh := range flows {
		if fh == h {
			flows[i] = flows[len(flows)-1]
			n.linkFlows[l] = flows[:len(flows)-1]
			return
		}
	}
}

func (n *Network) alloc() Handle {
	if k := len(n.freeList); k > 0 {
		h := n.freeList[k-1]
		n.freeList = n.freeList[:k-1]
		return h
	}
	n.flows = append(n.flows, flowState{})
	return Handle(len(n.flows) - 1)
}

// SetLinkScale sets the effective capacity of one link to scale × nominal
// (scale 1 restores it) and re-rates affected flows.
func (n *Network) SetLinkScale(l LinkID, scale float64, at time.Duration) {
	n.advanceClock(at)
	if scale < 0 {
		scale = 0
	}
	n.capacity[l] = n.baseCap[l] * scale
	n.recomputeAround([]LinkID{l})
}

// SetSwitchScale degrades (or restores) every link attached to a switch —
// the fault model behind the paper's Fig. 5 switch-level diagnosis case.
func (n *Network) SetSwitchScale(sw flow.SwitchID, scale float64, at time.Duration) {
	n.advanceClock(at)
	if scale < 0 {
		scale = 0
	}
	var affected []LinkID
	for _, link := range n.links {
		if link.Switch == sw {
			n.capacity[link.ID] = n.baseCap[link.ID] * scale
			affected = append(affected, link.ID)
		}
	}
	n.recomputeAround(affected)
}

// advanceClock moves `now` forward without processing completions; callers
// must have drained completions up to `at` first (the platform driver's
// event loop guarantees this).
func (n *Network) advanceClock(at time.Duration) {
	if s := durToSec(at); s > n.now {
		n.now = s
	}
}

func durToSec(d time.Duration) float64 { return float64(d) / float64(time.Second) }

func secToDur(s float64) time.Duration {
	return time.Duration(math.Round(s * float64(time.Second)))
}
