package diagnose

import "sort"

// TrackerSnapshot is the incident tracker's serializable continuity
// state: open incidents with the bookkeeping (opening observation, global
// observation counter, baseline origin) that the chronic classification
// depends on.
type TrackerSnapshot struct {
	// Seq is the number of Observe calls made.
	Seq int
	// FirstAlertSeq is the observation index of the first window that
	// carried any alert (-1 if none yet) — the baseline origin.
	FirstAlertSeq int
	// Open are the currently firing incidents, ordered by key.
	Open []OpenIncident
}

// OpenIncident pairs one open incident with the observation index at
// which it opened.
type OpenIncident struct {
	Incident  Incident
	OpenedSeq int
}

// Snapshot captures the tracker's state. The result shares nothing with
// the tracker and stays valid across further Observe calls.
func (t *IncidentTracker) Snapshot() TrackerSnapshot {
	s := TrackerSnapshot{Seq: t.seq, FirstAlertSeq: t.firstAlertSeq}
	s.Open = make([]OpenIncident, 0, len(t.open))
	for key, inc := range t.open {
		s.Open = append(s.Open, OpenIncident{Incident: *inc, OpenedSeq: t.openedSeq[key]})
	}
	sort.Slice(s.Open, func(i, j int) bool {
		return keyLess(s.Open[i].Incident.Key, s.Open[j].Incident.Key)
	})
	return s
}

// Restore replaces the tracker's open incidents and counters with the
// snapshot's.
func (t *IncidentTracker) Restore(s TrackerSnapshot) {
	t.seq = s.Seq
	t.firstAlertSeq = s.FirstAlertSeq
	t.open = make(map[IncidentKey]*Incident, len(s.Open))
	t.openedSeq = make(map[IncidentKey]int, len(s.Open))
	for _, o := range s.Open {
		inc := o.Incident
		t.open[inc.Key] = &inc
		t.openedSeq[inc.Key] = o.OpenedSeq
	}
}

func keyLess(a, b IncidentKey) bool {
	if a.Job != b.Job {
		return a.Job < b.Job
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Switch < b.Switch
}
