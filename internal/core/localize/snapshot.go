package localize

import (
	"sort"
	"time"
)

// TrackerSnapshot is the suspect tracker's serializable continuity state:
// per-component fused sums, miss counters and the last per-window suspect
// each Fused entry is rebuilt from.
type TrackerSnapshot struct {
	// Tracks are the open suspect tracks, ordered by component identity.
	Tracks []TrackSnapshot
}

// TrackSnapshot is one component's continuity state.
type TrackSnapshot struct {
	Component Component
	FirstSeen time.Time
	Windows   int
	Fused     float64
	Missed    int
	// Last is the most recent per-window Suspect observed for the
	// component (its Component/continuity fields as stamped then).
	Last Suspect
}

// Snapshot captures the tracker's state. The result shares nothing with
// the tracker and stays valid across further Observe calls.
func (t *Tracker) Snapshot() TrackerSnapshot {
	s := TrackerSnapshot{Tracks: make([]TrackSnapshot, 0, len(t.open))}
	for c, tr := range t.open {
		s.Tracks = append(s.Tracks, TrackSnapshot{
			Component: c,
			FirstSeen: tr.firstSeen,
			Windows:   tr.windows,
			Fused:     tr.fused,
			Missed:    tr.missed,
			Last:      tr.last,
		})
	}
	sort.Slice(s.Tracks, func(i, j int) bool {
		return s.Tracks[i].Component.less(s.Tracks[j].Component)
	})
	return s
}

// Restore replaces the tracker's open tracks with the snapshot's.
func (t *Tracker) Restore(s TrackerSnapshot) {
	t.open = make(map[Component]*track, len(s.Tracks))
	for _, ts := range s.Tracks {
		t.open[ts.Component] = &track{
			firstSeen: ts.FirstSeen,
			windows:   ts.Windows,
			fused:     ts.Fused,
			missed:    ts.Missed,
			last:      ts.Last,
		}
	}
}
