// Package faults defines the fault-injection schedule applied to platform
// simulations. Every diagnosis experiment needs anomalies with known ground
// truth: degraded switches (the paper's Fig. 5 congestion case), straggler
// ranks (cross-step detection), and degraded links (cross-group detection).
package faults

import (
	"fmt"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/netsim"
)

// Kind classifies a fault.
type Kind uint8

// Fault kinds.
const (
	// KindSwitchDegrade scales the capacity of every link attached to a
	// switch by Factor for the fault window (thermal issues, failing
	// optics, configuration-induced congestion).
	KindSwitchDegrade Kind = iota + 1
	// KindLinkDegrade scales one link's capacity by Factor.
	KindLinkDegrade
	// KindRankSlowdown multiplies the compute time of one GPU rank by
	// Factor (> 1 — e.g. thermal throttling), making it a straggler.
	KindRankSlowdown
)

func (k Kind) String() string {
	switch k {
	case KindSwitchDegrade:
		return "switch-degrade"
	case KindLinkDegrade:
		return "link-degrade"
	case KindRankSlowdown:
		return "rank-slowdown"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Fault is one injected anomaly active during [At, Until).
type Fault struct {
	Kind      Kind
	At, Until time.Duration
	// Switch is the target of KindSwitchDegrade.
	Switch flow.SwitchID
	// Link is the target of KindLinkDegrade.
	Link netsim.LinkID
	// Addr is the target NIC/GPU of KindRankSlowdown.
	Addr flow.Addr
	// Factor is the capacity scale (< 1) for degradations or the compute
	// multiplier (> 1) for slowdowns.
	Factor float64
}

// Validate checks the fault for internal consistency.
func (f Fault) Validate() error {
	if f.Until <= f.At {
		return fmt.Errorf("faults: window [%v, %v) is empty", f.At, f.Until)
	}
	switch f.Kind {
	case KindSwitchDegrade, KindLinkDegrade:
		if f.Factor < 0 || f.Factor >= 1 {
			return fmt.Errorf("faults: %v factor %v, want [0, 1)", f.Kind, f.Factor)
		}
	case KindRankSlowdown:
		if f.Factor <= 1 {
			return fmt.Errorf("faults: %v factor %v, want > 1", f.Kind, f.Factor)
		}
	default:
		return fmt.Errorf("faults: unknown kind %v", f.Kind)
	}
	return nil
}

// Schedule is a collection of faults.
type Schedule struct {
	Faults []Fault
}

// Validate checks every fault.
func (s Schedule) Validate() error {
	for i, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return fmt.Errorf("fault %d: %w", i, err)
		}
	}
	return nil
}

// Event is an activation or reversion of one fault at a point in time.
type Event struct {
	At     time.Duration
	Fault  Fault
	Revert bool
}

// Events expands the schedule into activation/reversion events sorted by
// time (activations before reversions on ties, for deterministic replay).
func (s Schedule) Events() []Event {
	events := make([]Event, 0, 2*len(s.Faults))
	for _, f := range s.Faults {
		events = append(events, Event{At: f.At, Fault: f})
		events = append(events, Event{At: f.Until, Fault: f, Revert: true})
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		return !events[i].Revert && events[j].Revert
	})
	return events
}

// ActiveSlowdown returns the compute multiplier for addr at time t
// (1 when no slowdown fault is active).
func (s Schedule) ActiveSlowdown(addr flow.Addr, t time.Duration) float64 {
	factor := 1.0
	for _, f := range s.Faults {
		if f.Kind == KindRankSlowdown && f.Addr == addr && t >= f.At && t < f.Until {
			factor *= f.Factor
		}
	}
	return factor
}
