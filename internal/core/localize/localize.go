// Package localize turns one analysis window's multi-dimensional alerts
// into a ranked list of suspect fabric components — the step from "which
// symptom" to "which switch, link or host", the answer a platform operator
// actually needs.
//
// # Evidence model
//
// The detectors name symptoms, not causes: a cross-step alert names a slow
// rank, a cross-group alert a slow DP group, a switch-bandwidth alert a
// switch whose per-flow mean dipped. Each alert implicates a set of flow
// records — the rank's flows, the group members' DP flows, the switch's
// rows — and every flow covers a set of physical components: the switches
// on its recorded path, the links between consecutive path hops, and its
// two endpoint NICs. Localization is spectrum-style suspiciousness scoring
// over that coverage matrix (the program-spectrum technique FLARE-class
// systems apply to cluster telemetry): a component covered by many
// implicated flows and few healthy ones is suspicious.
//
// Two sub-scores multiply into Suspect.Score:
//
//   - Coverage, the Ochiai coefficient ef/sqrt(F·(ef+ep)) where ef counts
//     implicated flows covering the component, F all implicated flows and
//     ep healthy flows covering it. It is 1 exactly when the component
//     covers every implicated flow and no healthy one.
//   - Contrast, the bandwidth ratio between the implicated flows that
//     avoid the component and those that cover it, clamped to [1/16, 16]
//     (maxContrast). Coverage alone cannot separate the members of a slow
//     DP group (a group alert implicates them all symmetrically); the
//     member whose flows are actually slow is the one behind the degraded
//     NIC or link. Link components additionally
//     contrast against their endpoint switches' implicated flows: a
//     switch-bandwidth alert implicates exactly the switch's rows, so a
//     degraded link under a healthy-but-flagged switch is distinguishable
//     only by its flows being slow relative to the switch's other edges —
//     while under a genuinely degraded switch every edge is equally slow
//     and the switch keeps the higher score; conversely, a link that is
//     not anomalous relative to a higher-scoring endpoint switch is
//     dropped from the ranking — the switch already explains it. Host
//     components likewise contrast each direction separately — a failing
//     transmit optic slows only outgoing flows, and averaging them with
//     the host's healthy receives hides it — with a discount on the
//     receive direction, so the transmitting end of a slow flow outranks
//     its receiver, which observes the very same flow.
//
// # Determinism discipline
//
// Localization runs on the merged report, after the per-job fan-out has
// been folded back in job order: flows are visited in (job, start, id)
// order and each flow's components in path order, so every per-component
// float accumulator receives its contributions in one fixed sequence, and
// the final ranking sorts by (score, kind, identity). Windows of at least
// shardMinRows rows parallelize the accumulation by component hash over
// GOMAXPROCS shards (at most maxAutoShards): each shard scans all flows in
// that same order but owns a disjoint component set, so every accumulator
// still sees the serial sequence. The suspect list is therefore
// bit-identical for any analysis worker count, any shard count, any
// within-lateness arrival permutation, and any archive replay of the same
// window.
package localize

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// ComponentKind classifies a suspect component.
type ComponentKind uint8

// Component kinds. The order is also the ranking tie-break order:
// switches before links before hosts.
const (
	ComponentSwitch ComponentKind = iota + 1
	ComponentLink
	ComponentHost
)

func (k ComponentKind) String() string {
	switch k {
	case ComponentSwitch:
		return "switch"
	case ComponentLink:
		return "link"
	case ComponentHost:
		return "host"
	default:
		return fmt.Sprintf("ComponentKind(%d)", uint8(k))
	}
}

// Component identifies one physical fabric element a fault can live on: a
// switch, a directed inter-switch link (a consecutive switch-path edge —
// directed because fabrics degrade per direction: a failing transmit optic
// slows leaf→spine while spine→leaf stays clean, and folding the healthy
// reverse direction into the component would dilute its slowness
// evidence), or a host NIC. Only the fields of the Kind are set; the
// struct is comparable and keys cross-window continuity.
type Component struct {
	Kind ComponentKind
	// Switch is the switch identity for ComponentSwitch.
	Switch flow.SwitchID
	// A, B are the link's switch endpoints for ComponentLink, in
	// traversal order (A → B).
	A, B flow.SwitchID
	// Host is the NIC endpoint for ComponentHost.
	Host flow.Addr
}

// SwitchComponent returns the component of one switch.
func SwitchComponent(sw flow.SwitchID) Component {
	return Component{Kind: ComponentSwitch, Switch: sw}
}

// LinkComponent returns the component of the directed link from a to b.
func LinkComponent(a, b flow.SwitchID) Component {
	return Component{Kind: ComponentLink, A: a, B: b}
}

// HostComponent returns the component of one endpoint NIC/host.
func HostComponent(a flow.Addr) Component {
	return Component{Kind: ComponentHost, Host: a}
}

func (c Component) String() string {
	switch c.Kind {
	case ComponentSwitch:
		return "switch " + c.Switch.String()
	case ComponentLink:
		return "link " + c.A.String() + "->" + c.B.String()
	case ComponentHost:
		return "host " + c.Host.String()
	default:
		return c.Kind.String()
	}
}

// less orders components by (kind, identity) — the deterministic ranking
// tie-break.
func (c Component) less(o Component) bool {
	if c.Kind != o.Kind {
		return c.Kind < o.Kind
	}
	switch c.Kind {
	case ComponentSwitch:
		return c.Switch < o.Switch
	case ComponentLink:
		if c.A != o.A {
			return c.A < o.A
		}
		return c.B < o.B
	default:
		return c.Host < o.Host
	}
}

// Suspect is one ranked root-cause candidate.
type Suspect struct {
	Component Component
	// Score is Coverage × Contrast; suspects are ranked by it, ties
	// broken by (kind, identity).
	Score float64
	// Coverage is the Ochiai spectrum score of the component over
	// implicated vs healthy flows.
	Coverage float64
	// Contrast is the clamped bandwidth ratio of implicated flows
	// avoiding the component to implicated flows covering it (> 1 means
	// the covering flows are slower than their implicated peers).
	Contrast float64
	// Implicated and Healthy count the alert-implicated and healthy
	// flows covering the component.
	Implicated, Healthy int
	// FirstSeen and Windows are cross-window continuity, stamped by the
	// monitor's suspect tracker (zero outside the monitor): the window
	// start at which this component first became a suspect and the count
	// of windows it has been one (missed windows inside the tracker's
	// grace do not reset the run).
	FirstSeen time.Time
	Windows   int
	// Fused is the component's cross-window fused suspiciousness — the
	// running sum of its per-window Score over the windows of its current
	// run, stamped by the tracker (zero outside the monitor). Brief noise
	// contributes one window's score; a real fault keeps accumulating, so
	// ranking by Fused washes the noise out.
	Fused float64
}

// Localization's operating point.
const (
	// maxSuspects bounds the ranked list.
	maxSuspects = 8
	// minScore drops components scoring below it.
	minScore = 0.02
	// maxContrast clamps the bandwidth-contrast factor (and its
	// reciprocal); a float constant, so 1/maxContrast is 1/16.
	maxContrast = 16.0
)

// Config tunes localization.
type Config struct {
	// Filter, when non-nil, gates which alerts count as localization
	// evidence: an alert for which it returns false implicates no flows.
	// job is the alert's Job.ID (0 for fabric-level switch alerts). The
	// monitor uses it to exclude chronic-baseline incidents — an anomaly
	// firing since window 0 is a structural property whose evidence would
	// only drag suspicion toward healthy components.
	Filter func(job int, a diagnose.Alert) bool
}

// receiveDiscount scales the receive-direction host contrast: receiving a
// slow flow is weaker evidence of a local fault than sending one (the
// sender's transmit path, or the fabric between, is the likelier culprit).
const receiveDiscount = 0.6

// linkDominanceContrast is the minimum sibling contrast a link suspect
// must show against a higher-scoring endpoint switch to stay in the
// ranking: below it, the link's flows are no slower than the switch's
// other edges, so the switch is the better explanation.
const linkDominanceContrast = 2

// Job is one recognized job's analysis output, the per-job slice of the
// report the localizer consumes.
type Job struct {
	// ID is the job's stable cross-window identity (the monitor's JobID),
	// passed to Config.Filter. Zero outside the monitor.
	ID int
	// Records are the job's flow records in (start, id) order, switch
	// paths included.
	Records []flow.Record
	// Types classifies the job's pairs (PP vs DP).
	Types map[flow.Pair]parallel.Type
	// DPGroups are the job's DP groups; cross-group alerts index them.
	DPGroups [][]flow.Addr
	// Alerts are the job-scoped alerts (cross-step, cross-group).
	Alerts []diagnose.Alert
}

// compStat accumulates one component's spectrum counters.
type compStat struct {
	implicated int     // implicated flows covering the component
	healthy    int     // healthy flows covering the component
	implSum    float64 // Gbps sum of measurable implicated covering flows
	implBW     int     // count behind implSum
	// Directional splits of (implSum, implBW), tracked for host
	// components: outgoing = the host is the flow's source.
	outSum, inSum float64
	outBW, inBW   int
}

// Localize converts one window's alerts plus its flows' switch paths into
// a ranked suspect list. jobs must be in report order (smallest endpoint
// first) with records in (start, id) order — Localize preserves that order
// in its float accumulation, which is what makes the result bit-identical
// across worker counts. switchAlerts are the window's fabric-level alerts.
// It returns nil when no alert implicates any flow, and at most
// maxSuspects (8) suspects scoring at least minScore (0.02).
func Localize(jobs []Job, switchAlerts []diagnose.Alert, cfg Config) []Suspect {
	suspects := rank(jobs, switchAlerts, cfg, 0)
	if len(suspects) > maxSuspects {
		suspects = suspects[:maxSuspects]
	}
	return suspects
}

// rank is Localize before the maxSuspects truncation: every component
// scoring at least minScore, ranked. shards is the number of accumulation
// workers, each scanning every flow in the same fixed (job, start, id)
// order but folding only the components it owns (by component hash), so
// every per-component float accumulator still receives its contributions
// in exactly the serial sequence. 0 picks GOMAXPROCS (capped at
// maxAutoShards), which is what Localize runs; 1 is the serial reference
// path. Windows smaller than shardMinRows run serially regardless.
func rank(jobs []Job, switchAlerts []diagnose.Alert, cfg Config, shards int) []Suspect {
	// Deduplicate alerts into implication targets: a rank slow in ten
	// steps implicates its flows once, not ten times. The evidence filter
	// runs here, before any implication is recorded, so a filtered alert
	// contributes nothing anywhere downstream.
	keep := func(job int, a diagnose.Alert) bool {
		return cfg.Filter == nil || cfg.Filter(job, a)
	}
	flaggedSwitches := make(map[flow.SwitchID]bool)
	for _, a := range switchAlerts {
		if a.Kind == diagnose.AlertSwitchBandwidth && keep(0, a) {
			flaggedSwitches[a.Switch] = true
		}
	}
	targets := make([]jobTargets, len(jobs))
	any := len(flaggedSwitches) > 0
	for ji, job := range jobs {
		t := jobTargets{ranks: make(map[flow.Addr]bool), members: make(map[flow.Addr]bool)}
		for _, a := range job.Alerts {
			if !keep(job.ID, a) {
				continue
			}
			switch a.Kind {
			case diagnose.AlertCrossStep:
				t.ranks[a.Rank] = true
			case diagnose.AlertCrossGroup:
				if a.Group >= 0 && a.Group < len(job.DPGroups) {
					for _, m := range job.DPGroups[a.Group] {
						t.members[m] = true
					}
				}
			case diagnose.AlertSwitchBandwidth:
				flaggedSwitches[a.Switch] = true
				any = true
			}
		}
		if len(t.ranks) > 0 || len(t.members) > 0 {
			any = true
		}
		targets[ji] = t
	}
	if !any {
		return nil
	}

	// Accumulate the per-component spectrum counters — serial reference
	// path for one shard, component-hash-sharded workers otherwise (see
	// accumulate for the determinism argument). Shard 0 owns the global
	// totals either way.
	if shards <= 0 {
		shards = min(runtime.GOMAXPROCS(0), maxAutoShards)
	}
	total := 0
	for i := range jobs {
		total += len(jobs[i].Records)
	}
	if total < shardMinRows {
		shards = 1
	}
	accs := make([]accumulator, shards)
	if shards == 1 {
		accs[0] = accumulate(jobs, targets, flaggedSwitches, 0, 1)
	} else {
		var wg sync.WaitGroup
		for s := 0; s < shards; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				accs[s] = accumulate(jobs, targets, flaggedSwitches, s, shards)
			}(s)
		}
		wg.Wait()
	}
	implRows, implSum, implBW := accs[0].implRows, accs[0].implSum, accs[0].implBW
	lookup := func(c Component) *compStat {
		if shards == 1 {
			return accs[0].stats[c]
		}
		return accs[componentShard(c, shards)].stats[c]
	}
	if implRows == 0 {
		return nil
	}

	// Score the components touched by implicated flows, in (kind,
	// identity) order — each component's score depends only on its own
	// counters and the global totals, but the fixed fold order keeps the
	// pipeline reproducible end to end. Shards are drained in fixed index
	// order; the sort below canonicalizes regardless.
	var ordered []Component
	for s := range accs {
		for c, st := range accs[s].stats {
			if st.implicated > 0 {
				ordered = append(ordered, c)
			}
		}
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].less(ordered[j]) })

	// contrastOf is the slowness ratio of a reference flow set's mean
	// bandwidth to the component's covering mean (1 when either side is
	// empty; maxContrast when the covering flows are fully stalled).
	contrastOf := func(coverSum float64, coverN int, restSum float64, restN int) float64 {
		if coverN == 0 || restN <= 0 {
			return 1
		}
		cover := coverSum / float64(coverN)
		if cover <= 0 {
			return maxContrast
		}
		return (restSum / float64(restN)) / cover
	}
	suspects := make([]Suspect, 0, len(ordered))
	scores := make(map[Component]float64, len(ordered))
	sibling := make(map[Component][2]float64) // link → per-endpoint sibling contrast
	for _, c := range ordered {
		s := lookup(c)
		coverage := float64(s.implicated) /
			math.Sqrt(float64(implRows)*float64(s.implicated+s.healthy))
		contrast := contrastOf(s.implSum, s.implBW, implSum-s.implSum, implBW-s.implBW)
		switch c.Kind {
		case ComponentLink:
			// Sibling contrast: compare the link's flows against the
			// other implicated flows of each endpoint switch.
			var sib [2]float64
			for i, sw := range [2]flow.SwitchID{c.A, c.B} {
				sib[i] = 1
				if p := lookup(SwitchComponent(sw)); p != nil {
					sib[i] = contrastOf(s.implSum, s.implBW, p.implSum-s.implSum, p.implBW-s.implBW)
				}
				if sib[i] > contrast {
					contrast = sib[i]
				}
			}
			sibling[c] = sib
		case ComponentHost:
			// Directional contrast, receive side discounted (the sending
			// end of a slow flow is the likelier culprit).
			rest, restN := implSum-s.implSum, implBW-s.implBW
			if out := contrastOf(s.outSum, s.outBW, rest, restN); out > contrast {
				contrast = out
			}
			if in := receiveDiscount * contrastOf(s.inSum, s.inBW, rest, restN); in > contrast {
				contrast = in
			}
		}
		if contrast > maxContrast {
			contrast = maxContrast
		}
		if contrast < 1/maxContrast {
			contrast = 1 / maxContrast
		}
		score := coverage * contrast
		if score < minScore {
			continue
		}
		scores[c] = score
		suspects = append(suspects, Suspect{
			Component:  c,
			Score:      score,
			Coverage:   coverage,
			Contrast:   contrast,
			Implicated: s.implicated,
			Healthy:    s.healthy,
		})
	}
	// Dominance: a link that is no slower than a switch's other edges,
	// under that switch scoring higher, adds nothing over the switch —
	// every flow of the link is one of the switch's flows.
	kept := suspects[:0]
	for _, s := range suspects {
		if s.Component.Kind == ComponentLink {
			sib := sibling[s.Component]
			dominated := false
			for i, sw := range [2]flow.SwitchID{s.Component.A, s.Component.B} {
				if sib[i] >= linkDominanceContrast {
					continue
				}
				if swScore, ok := scores[SwitchComponent(sw)]; ok && swScore > s.Score {
					dominated = true
					break
				}
			}
			if dominated {
				continue
			}
		}
		kept = append(kept, s)
	}
	suspects = kept
	sort.SliceStable(suspects, func(i, j int) bool {
		if suspects[i].Score != suspects[j].Score {
			return suspects[i].Score > suspects[j].Score
		}
		return suspects[i].Component.less(suspects[j].Component)
	})
	if len(suspects) == 0 {
		return nil
	}
	return suspects
}

// maxAutoShards caps the shard count Localize picks: the accumulation is
// memory-bound well before this, and every shard re-scans every flow.
const maxAutoShards = 8

// shardMinRows is the total record count below which accumulation always
// runs serially — fan-out overhead exceeds the win on small windows, and
// unit-test-sized inputs stay on the reference path.
const shardMinRows = 4096

// jobTargets is one job's implication targets, derived from its kept
// alerts.
type jobTargets struct {
	ranks   map[flow.Addr]bool
	members map[flow.Addr]bool // union of flagged DP groups' members
}

// accumulator is one shard's accumulation output. Shard 0 additionally
// carries the global implicated-flow totals.
type accumulator struct {
	stats    map[Component]*compStat
	implRows int     // F: all implicated flows
	implSum  float64 // Gbps sum of measurable implicated flows
	implBW   int
}

// componentShard assigns c to one of n accumulation shards by a
// splitmix64-style hash of its identity. The hash decides only which shard
// owns a component's accumulator, never any ordering.
func componentShard(c Component, n int) int {
	var x uint64
	switch c.Kind {
	case ComponentSwitch:
		x = uint64(c.Switch)
	case ComponentLink:
		x = uint64(c.A)*0x9e3779b97f4a7c15 + uint64(c.B)
	default:
		x = uint64(c.Host)
	}
	x = x*8 + uint64(c.Kind)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// accumulate folds every flow, in (job, start, id) order, into the
// components owned by shard (every component when nShards == 1).
//
// Sharding discipline: each shard scans all flows — the implication test is
// cheap map lookups — but folds a component only if the component hash maps
// it to this shard. A component is owned by exactly one shard, so its float
// accumulator receives contributions in exactly the sequence the serial
// pass produces; nothing is ever folded across shards, so there is no shard
// fold whose order could vary. Shard 0 also accumulates the global totals,
// in the same serial flow order. The inputs (targets, flagged, jobs) are
// read-only across shards.
func accumulate(jobs []Job, targets []jobTargets, flagged map[flow.SwitchID]bool, shard, nShards int) accumulator {
	acc := accumulator{stats: make(map[Component]*compStat)}
	owns := func(c Component) bool {
		return nShards == 1 || componentShard(c, nShards) == shard
	}
	stat := func(c Component) *compStat {
		s := acc.stats[c]
		if s == nil {
			s = &compStat{}
			acc.stats[c] = s
		}
		return s
	}
	var comps []Component // scratch, per flow
	for ji := range jobs {
		job := &jobs[ji]
		t := targets[ji]
		for _, r := range job.Records {
			implicated := t.ranks[r.Src] || t.ranks[r.Dst]
			if !implicated && len(t.members) > 0 && t.members[r.Src] && t.members[r.Dst] &&
				job.Types[r.Pair()] == parallel.TypeDP {
				implicated = true
			}
			if !implicated && len(flagged) > 0 {
				for _, sw := range r.Switches {
					if flagged[sw] {
						implicated = true
						break
					}
				}
			}

			comps = comps[:0]
			for i, sw := range r.Switches {
				comps = append(comps, SwitchComponent(sw))
				if i > 0 {
					comps = append(comps, LinkComponent(r.Switches[i-1], sw))
				}
			}

			gbps := r.Gbps()
			measurable := r.Duration > 0 && r.Bytes > 0
			if implicated && shard == 0 {
				acc.implRows++
				if measurable {
					acc.implSum += gbps
					acc.implBW++
				}
			}
			fold := func(s *compStat) {
				if implicated {
					s.implicated++
					if measurable {
						s.implSum += gbps
						s.implBW++
					}
				} else {
					s.healthy++
				}
			}
			for _, c := range dedupComponents(comps) {
				if owns(c) {
					fold(stat(c))
				}
			}
			if c := HostComponent(r.Src); owns(c) {
				src := stat(c)
				fold(src)
				if implicated && measurable {
					src.outSum += gbps
					src.outBW++
				}
			}
			if r.Dst != r.Src {
				if c := HostComponent(r.Dst); owns(c) {
					dst := stat(c)
					fold(dst)
					if implicated && measurable {
						dst.inSum += gbps
						dst.inBW++
					}
				}
			}
		}
	}
	return acc
}

// dedupComponents removes duplicates in place, preserving first-seen
// order. Paths are short (a handful of hops), so the quadratic scan beats
// a map.
func dedupComponents(comps []Component) []Component {
	out := comps[:0]
	for _, c := range comps {
		dup := false
		for _, seen := range out {
			if seen == c {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, c)
		}
	}
	return out
}
