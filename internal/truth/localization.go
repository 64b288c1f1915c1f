package truth

import (
	"fmt"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/faults"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// LocalizedWindow is one analysis window's localization output: the
// window's event-time bounds, the alerts the detectors raised, and the
// ranked suspect list the localizer produced (empty when no alert fired).
type LocalizedWindow struct {
	Start, End time.Time
	// Alerts are the window's alerts (all jobs plus switch-level);
	// scoring attributes a fault to the localizer only in windows where
	// an alert corresponding to that fault fired.
	Alerts   []diagnose.Alert
	Suspects []localize.Suspect
	// Fused, when non-nil, is the incident-centric cross-window fused
	// ranking as of this window (localize.Tracker.Fused); scoring prefers
	// it over the single-window Suspects list.
	Fused []localize.Suspect
}

// Ranked returns the suspect list the window should be scored on: the
// cross-window fused ranking when present, the per-window list otherwise.
func (w LocalizedWindow) Ranked() []localize.Suspect {
	if w.Fused != nil {
		return w.Fused
	}
	return w.Suspects
}

// FaultComponent maps an injected fault to the fabric component the
// localizer is expected to name: a degraded switch to its switch, a rank
// slowdown to the rank's host NIC, a degraded NIC link likewise to the
// host (the NIC and its access link are indistinguishable from flow
// records), and a degraded fabric link to the directed leaf→spine or
// spine→leaf link. ok is false for link ids outside the topology.
func FaultComponent(topo *topology.Topology, f faults.Fault) (localize.Component, bool) {
	switch f.Kind {
	case faults.KindSwitchDegrade:
		return localize.SwitchComponent(f.Switch), true
	case faults.KindRankSlowdown:
		return localize.HostComponent(f.Addr), true
	case faults.KindLinkDegrade:
		info, ok := topo.LinkInfo(f.Link)
		if !ok {
			return localize.Component{}, false
		}
		switch info.Kind {
		case topology.LinkNICUp, topology.LinkNICDown:
			return localize.HostComponent(info.Addr), true
		case topology.LinkLeafToSpine:
			return localize.LinkComponent(info.Leaf, info.Spine), true
		default:
			return localize.LinkComponent(info.Spine, info.Leaf), true
		}
	default:
		return localize.Component{}, false
	}
}

// FaultDetected reports whether one of the window's alerts corresponds to
// the fault — the precondition for attributing the window to the
// localizer. A window where the corresponding detector stayed quiet is a
// detection miss (e.g. a rank that has been slow since before the window
// opened self-normalizes its own cross-step baseline), not a localization
// error.
//
//   - Switch degrades correspond to switch-level alerts on that switch.
//   - Rank slowdowns correspond to cross-step alerts on a rank of the
//     same server (TP synchronization throttles the whole server).
//   - NIC-link degrades correspond to cross-group alerts (the host's DP
//     group crawls) or same-server cross-step alerts.
//   - Fabric-link degrades correspond to cross-group alerts or
//     switch-level alerts on either endpoint switch.
func FaultDetected(topo *topology.Topology, f faults.Fault, alerts []diagnose.Alert) bool {
	switchAlertOn := func(sw flow.SwitchID) bool {
		for _, a := range alerts {
			if a.Kind == diagnose.AlertSwitchBandwidth && a.Switch == sw {
				return true
			}
		}
		return false
	}
	crossStepOnNode := func(n topology.NodeID) bool {
		for _, a := range alerts {
			if a.Kind == diagnose.AlertCrossStep && topo.NodeOf(a.Rank) == n {
				return true
			}
		}
		return false
	}
	crossGroup := func() bool {
		for _, a := range alerts {
			if a.Kind == diagnose.AlertCrossGroup {
				return true
			}
		}
		return false
	}
	switch f.Kind {
	case faults.KindSwitchDegrade:
		return switchAlertOn(f.Switch)
	case faults.KindRankSlowdown:
		return crossStepOnNode(topo.NodeOf(f.Addr))
	case faults.KindLinkDegrade:
		info, ok := topo.LinkInfo(f.Link)
		if !ok {
			return false
		}
		switch info.Kind {
		case topology.LinkNICUp, topology.LinkNICDown:
			return crossGroup() || crossStepOnNode(topo.NodeOf(info.Addr))
		default:
			return crossGroup() || switchAlertOn(info.Leaf) || switchAlertOn(info.Spine)
		}
	default:
		return false
	}
}

// LocalizationScore aggregates localization accuracy over the windows of
// one scenario. A (window, fault) pair is scored when the fault was active
// inside the window, the localizer produced suspects, and one of the
// fault's corresponding alert kinds fired; windows outside fault activity,
// and fault windows whose corresponding detectors stayed quiet, are
// detection territory and are not attributed to the localizer.
type LocalizationScore struct {
	// K is the ranked-list depth the TopK/precision/recall figures use.
	K int
	// Windows counts scored windows.
	Windows int
	// FaultWindows counts (window, active fault) pairs over scored
	// windows — the denominator of the hit rates.
	FaultWindows int
	// Top1 and TopK count fault-window pairs whose expected component
	// ranked first / within the top K suspects.
	Top1, TopK int
	// Suspected counts the top-K suspects examined over scored windows;
	// TruePositives the ones matching an active fault's component.
	Suspected, TruePositives int
}

// Top1Rate is the fraction of fault-window pairs localized at rank 1.
func (s LocalizationScore) Top1Rate() float64 { return ratio(s.Top1, s.FaultWindows) }

// TopKRate is the fraction of fault-window pairs localized within top K.
func (s LocalizationScore) TopKRate() float64 { return ratio(s.TopK, s.FaultWindows) }

// Precision is the fraction of emitted top-K suspects that match an
// active fault.
func (s LocalizationScore) Precision() float64 { return ratio(s.TruePositives, s.Suspected) }

// Recall is the fraction of active faults recovered within top K —
// identical to TopKRate, named for the table.
func (s LocalizationScore) Recall() float64 { return s.TopKRate() }

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// String renders the score as one compact table cell.
func (s LocalizationScore) String() string {
	return fmt.Sprintf("top1 %.0f%% top%d %.0f%% prec %.0f%% (%d windows)",
		100*s.Top1Rate(), s.K, 100*s.TopKRate(), 100*s.Precision(), s.Windows)
}

// ScoreLocalization scores per-window suspect lists against the injected
// fault schedule. epoch anchors the schedule's offsets to the windows'
// wall-clock bounds; a fault is active in a window when their intervals
// overlap. k bounds the ranked-list depth (default 3 when <= 0).
func ScoreLocalization(topo *topology.Topology, sched faults.Schedule, epoch time.Time, windows []LocalizedWindow, k int) LocalizationScore {
	if k <= 0 {
		k = 3
	}
	score := LocalizationScore{K: k}
	for _, w := range windows {
		var active []localize.Component
		for _, f := range sched.Faults {
			from, until := epoch.Add(f.At), epoch.Add(f.Until)
			if !from.Before(w.End) || !until.After(w.Start) {
				continue
			}
			if !FaultDetected(topo, f, w.Alerts) {
				continue
			}
			if comp, ok := FaultComponent(topo, f); ok {
				active = append(active, comp)
			}
		}
		ranked := w.Ranked()
		if len(active) == 0 || len(ranked) == 0 {
			continue
		}
		score.Windows++
		top := ranked
		if len(top) > k {
			top = top[:k]
		}
		score.Suspected += len(top)
		for _, s := range top {
			for _, comp := range active {
				if s.Component == comp {
					score.TruePositives++
					break
				}
			}
		}
		for _, comp := range active {
			score.FaultWindows++
			if ranked[0].Component == comp {
				score.Top1++
			}
			for _, s := range top {
				if s.Component == comp {
					score.TopK++
					break
				}
			}
		}
	}
	return score
}
