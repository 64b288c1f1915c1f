package diagnose

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

func TestIncidentContinuity(t *testing.T) {
	tr := NewIncidentTracker(IncidentConfig{})
	t0 := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	alert := func(at time.Time, step int) JobAlert {
		return JobAlert{Job: 1, Alert: Alert{
			Kind: AlertCrossStep, Rank: 7, Step: step, Time: at, Detail: "slow",
		}}
	}

	// Window 0: two alerts of the same rank collapse into one incident.
	incs := tr.Observe([]JobAlert{alert(t0, 3), alert(t0.Add(time.Second), 4)})
	if len(incs) != 1 {
		t.Fatalf("incidents = %d, want 1 (same rank, one incident)", len(incs))
	}
	if incs[0].Windows != 1 || !incs[0].StillFiring || !incs[0].FirstSeen.Equal(t0) {
		t.Errorf("window 0 incident = %+v", incs[0])
	}
	if !incs[0].LastSeen.Equal(t0.Add(time.Second)) {
		t.Errorf("LastSeen = %v, want the later alert's time", incs[0].LastSeen)
	}

	// Window 1: still firing — same incident, second window.
	t1 := t0.Add(time.Minute)
	incs = tr.Observe([]JobAlert{alert(t1, 9)})
	if len(incs) != 1 || incs[0].Windows != 2 || !incs[0].FirstSeen.Equal(t0) {
		t.Fatalf("window 1 incident = %+v, want windows=2 firstSeen=t0", incs[0])
	}

	// Window 2: quiet — the incident resolves, reported once more.
	incs = tr.Observe(nil)
	if len(incs) != 1 || incs[0].StillFiring {
		t.Fatalf("window 2 = %+v, want one resolved incident", incs)
	}
	if tr.Open() != 0 {
		t.Errorf("open = %d, want 0", tr.Open())
	}

	// Window 3: reappearance opens a fresh incident.
	incs = tr.Observe([]JobAlert{alert(t0.Add(3*time.Minute), 2)})
	if len(incs) != 1 || incs[0].Windows != 1 {
		t.Errorf("window 3 = %+v, want a fresh incident", incs)
	}
}

// TestIncidentChronicClassification pins the baseline learner: an anomaly
// firing from the first window that carried any alert onward is a
// property of the deployment — chronic — while one opening in any later
// window, the very next one included, is an event, however long it
// persists.
func TestIncidentChronicClassification(t *testing.T) {
	tr := NewIncidentTracker(IncidentConfig{}) // chronicAfter 3
	t0 := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	chronicAlert := func(w int) JobAlert {
		return JobAlert{Job: 1, Alert: Alert{
			Kind: AlertCrossGroup, GroupAnchor: 7, Time: t0.Add(time.Duration(w) * time.Minute),
		}}
	}
	eventAlert := func(w int) JobAlert {
		return JobAlert{Job: 1, Alert: Alert{
			Kind: AlertCrossStep, Rank: 3, Time: t0.Add(time.Duration(w) * time.Minute),
		}}
	}
	// Switch 1 opens in window 1, the first after the baseline window (the
	// first that carried an alert); switch 2 opens in window 2.
	switchAlert := func(sw flow.SwitchID, w int) JobAlert {
		return JobAlert{Alert: Alert{
			Kind: AlertSwitchBandwidth, Switch: sw, Time: t0.Add(time.Duration(w) * time.Minute),
		}}
	}

	// Leading empty windows must not consume the baseline period: the
	// monitor can anchor its grid well before the first alert.
	tr.Observe(nil)
	tr.Observe(nil)

	find := func(incs []Incident, kind AlertKind) *Incident {
		for i := range incs {
			if incs[i].Key.Kind == kind {
				return &incs[i]
			}
		}
		return nil
	}

	var incs []Incident
	for w := 0; w < 6; w++ {
		alerts := []JobAlert{chronicAlert(w)}
		if w >= 4 { // the event fault appears after the baseline period
			alerts = append(alerts, eventAlert(w))
		}
		if w >= 1 {
			alerts = append(alerts, switchAlert(1, w))
		}
		if w >= 2 {
			alerts = append(alerts, switchAlert(2, w))
		}
		incs = tr.Observe(alerts)
		cg := find(incs, AlertCrossGroup)
		if cg == nil {
			t.Fatalf("window %d: cross-group incident missing", w)
		}
		if wantChronic := w >= 2; cg.Chronic != wantChronic { // chronicAfter=3 windows reached at w=2
			t.Errorf("window %d: baseline incident Chronic = %v, want %v", w, cg.Chronic, wantChronic)
		}
		for _, inc := range incs {
			if inc.Key.Kind != AlertSwitchBandwidth {
				continue
			}
			// Both opened after the baseline window: a fault that opens
			// one window after a spurious first alert is still an event.
			if inc.Chronic {
				t.Errorf("window %d: switch %v incident Chronic = true, want false", w, inc.Key.Switch)
			}
		}
	}
	// The late-opening incident has fired 2 windows; run it past
	// chronicAfter: it must stay non-chronic — it opened after the
	// baseline window.
	for w := 6; w < 10; w++ {
		incs = tr.Observe([]JobAlert{chronicAlert(w), eventAlert(w)})
		ev := find(incs, AlertCrossStep)
		if ev == nil {
			t.Fatalf("window %d: cross-step incident missing", w)
		}
		if ev.Chronic {
			t.Fatalf("window %d: post-baseline incident classified chronic: %+v", w, *ev)
		}
		if cg := find(incs, AlertCrossGroup); !cg.Chronic {
			t.Errorf("window %d: chronic flag must be sticky", w)
		}
	}
}

func TestIncidentKeysSeparateDimensions(t *testing.T) {
	tr := NewIncidentTracker(IncidentConfig{})
	at := time.Now()
	incs := tr.Observe([]JobAlert{
		{Job: 2, Alert: Alert{Kind: AlertCrossStep, Rank: 5, Time: at}},
		{Job: 1, Alert: Alert{Kind: AlertCrossGroup, Group: 3, GroupAnchor: 40, Time: at}},
		{Job: 1, Alert: Alert{Kind: AlertCrossStep, Rank: 5, Time: at}},
		{Alert: Alert{Kind: AlertSwitchBandwidth, Switch: 9, Time: at}},
	})
	if len(incs) != 4 {
		t.Fatalf("incidents = %d, want 4 distinct keys", len(incs))
	}
	// Deterministic order: by job, then kind, then location.
	want := []IncidentKey{
		{Job: 0, Kind: AlertSwitchBandwidth, Switch: 9},
		{Job: 1, Kind: AlertCrossStep, Rank: 5},
		{Job: 1, Kind: AlertCrossGroup, Rank: 40},
		{Job: 2, Kind: AlertCrossStep, Rank: 5},
	}
	for i, w := range want {
		if incs[i].Key != w {
			t.Errorf("incident %d key = %+v, want %+v", i, incs[i].Key, w)
		}
	}
}

func TestKeyOfStripsPerWindowFields(t *testing.T) {
	a := Alert{Kind: AlertCrossStep, Rank: 4, Step: 17, Time: time.Now(), Value: 2.5}
	b := Alert{Kind: AlertCrossStep, Rank: 4, Step: 99, Time: time.Now().Add(time.Hour), Value: 9.9}
	if KeyOf(3, a) != KeyOf(3, b) {
		t.Error("same rank, different steps should share a key")
	}
	if KeyOf(3, a) == KeyOf(4, a) {
		t.Error("different jobs must not share a key")
	}
}

func TestCrossGroupKeyIsPositionIndependent(t *testing.T) {
	// The same physical DP group renumbers from index 2 to index 1 when a
	// sibling group carries no traffic in the next window; the incident
	// must continue, keyed on the group's anchor endpoint.
	tr := NewIncidentTracker(IncidentConfig{})
	at := time.Now()
	a := Alert{Kind: AlertCrossGroup, Group: 2, GroupAnchor: 30, Time: at}
	b := Alert{Kind: AlertCrossGroup, Group: 1, GroupAnchor: 30, Time: at.Add(time.Minute)}
	if KeyOf(1, a) != KeyOf(1, b) {
		t.Fatal("same anchor, different positional index should share a key")
	}
	tr.Observe([]JobAlert{{Job: 1, Alert: a}})
	incs := tr.Observe([]JobAlert{{Job: 1, Alert: b}})
	if len(incs) != 1 || incs[0].Windows != 2 {
		t.Errorf("incident = %+v, want one incident spanning 2 windows", incs)
	}
	// A different physical group landing at the old index is a new key.
	c := Alert{Kind: AlertCrossGroup, Group: 2, GroupAnchor: 77, Time: at}
	if KeyOf(1, a) == KeyOf(1, c) {
		t.Error("different anchors must not share a key")
	}
}
