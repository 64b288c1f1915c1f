package diagnose

import (
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// IncidentKey identifies one logical anomaly across analysis windows: the
// per-window Step/Time/Value dimensions of an Alert are stripped, so a rank
// that is slow in every window maps to one key, not one per step and
// window. Job is the monitor's stable cross-window job id (0 for
// switch-level alerts, which belong to the fabric, not a job); of the
// location fields only the ones the Kind uses are set. Every location
// field is a physical identity: cross-group alerts key on the group's
// anchor endpoint (its smallest member), never on the window-relative
// group index, which renumbers whenever a window's DP graph changes.
type IncidentKey struct {
	Job  int
	Kind AlertKind
	// Rank is the slow rank for cross-step alerts and the group's anchor
	// endpoint for cross-group alerts.
	Rank   flow.Addr
	Switch flow.SwitchID
}

// KeyOf derives the continuity key of one alert raised against job.
func KeyOf(job int, a Alert) IncidentKey {
	k := IncidentKey{Job: job, Kind: a.Kind}
	switch a.Kind {
	case AlertCrossStep:
		k.Rank = a.Rank
	case AlertCrossGroup:
		k.Rank = a.GroupAnchor
	default:
		k.Switch = a.Switch
	}
	return k
}

// Incident is the cross-window continuity view of one anomaly: a rank that
// throttles for five consecutive windows is one incident observed five
// times, not five independent alerts.
type Incident struct {
	Key IncidentKey
	// FirstSeen is the time of the earliest alert that opened the incident.
	FirstSeen time.Time
	// LastSeen is the time of the most recent alert of the incident.
	LastSeen time.Time
	// Windows counts the consecutive windows the incident has fired in.
	Windows int
	// StillFiring is true while the incident fired in the current window;
	// an incident is reported once more with StillFiring false in the
	// first window where it stopped, then forgotten.
	StillFiring bool
	// Chronic marks a baseline property rather than an event: the anomaly
	// has fired in every window since monitoring effectively began (it
	// opened in the first window that carried any alert) and has
	// persisted for at least chronicAfter (3) windows. A structurally slow
	// DP group — the trailing-rail collective segment of a pooled
	// comparison — is chronic; a fault injected mid-run is not, because
	// its incident opens after that first window, even when a spurious
	// alert opened it. Chronic is sticky for the incident's lifetime.
	Chronic bool
	// Detail carries the latest alert's human-readable explanation.
	Detail string
}

// JobAlert pairs one alert with the stable job id it was raised against
// (0 for switch-level alerts).
type JobAlert struct {
	Job   int
	Alert Alert
}

// chronicAfter is how many consecutive windows an incident that opened in
// the first alerting window must fire before it is classified chronic.
// Only those incidents can become chronic: anything opening later is an
// event, however long it persists.
const chronicAfter = 3

// IncidentConfig has no fields: chronic classification runs at one
// operating point (chronicAfter). It stays because bench/ names it.
type IncidentConfig struct{}

// IncidentTracker folds each window's alerts into ongoing incidents. It is
// not safe for concurrent use; the monitor drives it from the in-order
// report emission path, so its output is deterministic regardless of how
// many windows are analyzed in parallel.
type IncidentTracker struct {
	open map[IncidentKey]*Incident
	// openedSeq remembers the observation at which each open incident
	// opened, the input to the chronic-baseline test.
	openedSeq map[IncidentKey]int
	// seq counts Observe calls; firstAlertSeq is the seq of the first
	// observation that carried any alert (-1 until then) — the baseline
	// window. Leading empty windows (a monitor session anchoring
	// mid-grid) therefore do not consume the baseline.
	seq           int
	firstAlertSeq int
}

// NewIncidentTracker returns an empty tracker.
func NewIncidentTracker(IncidentConfig) *IncidentTracker {
	return &IncidentTracker{
		open:          make(map[IncidentKey]*Incident),
		openedSeq:     make(map[IncidentKey]int),
		firstAlertSeq: -1,
	}
}

// Observe folds one window's alerts (in report order) into the tracker and
// returns the window's continuity view: every incident that fired this
// window (new or continuing, StillFiring true), followed by every incident
// that fired last window but not this one (StillFiring false, reported
// once as a resolution notice). Both groups are ordered by key, so the
// output is deterministic for deterministic input.
//
// Each call is one window. An open incident has, by construction, fired in
// every window since it opened (a missed window deletes it), so the
// chronic test reduces to: opened in the baseline window and still alive
// after chronicAfter windows.
func (t *IncidentTracker) Observe(alerts []JobAlert) []Incident {
	seq := t.seq
	t.seq++
	if t.firstAlertSeq < 0 && len(alerts) > 0 {
		t.firstAlertSeq = seq
	}
	fired := make(map[IncidentKey]bool, len(alerts))
	for _, ja := range alerts {
		key := KeyOf(ja.Job, ja.Alert)
		inc, ok := t.open[key]
		if !ok {
			inc = &Incident{Key: key, FirstSeen: ja.Alert.Time}
			t.open[key] = inc
			t.openedSeq[key] = seq
		}
		if !fired[key] {
			// First alert of this key in this window.
			fired[key] = true
			inc.Windows++
		}
		// LastSeen only moves forward: with overlapping windows, a later
		// window can re-fire a key from alerts that are older than ones a
		// previous window already reported.
		if inc.LastSeen.IsZero() || ja.Alert.Time.After(inc.LastSeen) {
			inc.LastSeen = ja.Alert.Time
			inc.Detail = ja.Alert.Detail
		}
		inc.StillFiring = true
	}

	out := make([]Incident, 0, len(t.open))
	var resolved []Incident
	for key, inc := range t.open {
		if fired[key] {
			if !inc.Chronic && inc.Windows >= chronicAfter &&
				t.openedSeq[key] == t.firstAlertSeq {
				inc.Chronic = true
			}
			out = append(out, *inc)
			continue
		}
		inc.StillFiring = false
		resolved = append(resolved, *inc)
		delete(t.open, key)
		delete(t.openedSeq, key)
	}
	sortIncidents(out)
	sortIncidents(resolved)
	return append(out, resolved...)
}

func sortIncidents(incs []Incident) {
	sort.Slice(incs, func(i, j int) bool {
		a, b := incs[i].Key, incs[j].Key
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
	})
}
