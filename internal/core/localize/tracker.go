package localize

import (
	"sort"
	"time"
)

// The tracker's operating point.
const (
	// trackerGrace is how many consecutive windows a suspect may miss
	// before the tracker forgets it. Forgetting on the first miss turned
	// every flapping fault into a parade of fresh suspects, resetting
	// FirstSeen/Windows and the fused score on each reappearance.
	trackerGrace = 1
	// maxFused bounds the list Fused returns.
	maxFused = 8
	// fusedDecay is the retention factor applied to a component's fused
	// sum on every observed window — hit or miss — before the window's
	// score (0 on a miss) is added. It bounds how long stale evidence
	// outranks fresh: without it, two pre-fault windows of accumulated
	// noise top the fused list in a real fault's first window.
	fusedDecay = 0.5
)

// TrackerConfig has no fields: the tracker runs at one operating point
// (trackerGrace, maxFused, fusedDecay). It stays because bench/ names it.
type TrackerConfig struct{}

// Tracker carries suspect identity across analysis windows, the
// localization counterpart of diagnose.IncidentTracker: a component that
// stays suspect window after window is one ongoing root-cause hypothesis,
// keyed on its physical identity, not a fresh finding per window. Beyond
// continuity stamping it fuses suspiciousness across windows — each
// observed window adds the component's per-window Score to an
// exponentially decayed running sum — so the Fused ranking is the
// incident-centric view: brief noise contributes once and fades, a real
// fault keeps accumulating faster than it decays, and concurrent faults
// separate by how consistently each component scores. It is not safe for
// concurrent use; the monitor drives it from the in-order report emission
// path, so its output is deterministic regardless of how many windows
// analyze in parallel.
type Tracker struct {
	open map[Component]*track
}

type track struct {
	firstSeen time.Time
	windows   int
	fused     float64
	missed    int
	// last is the most recent per-window Suspect observed for the
	// component, the basis of its entry in the Fused ranking.
	last Suspect
}

// NewTracker returns an empty tracker.
func NewTracker(TrackerConfig) *Tracker {
	return &Tracker{open: make(map[Component]*track)}
}

// Observe folds one window's ranked suspects (at is the window start) into
// the tracker and stamps each suspect's FirstSeen, Windows and Fused
// continuity fields in place. Per-component fused sums decay by fusedDecay
// (0.5) and accumulate independently, in window order, so the result is
// deterministic for deterministic input. A component absent from this
// window's list survives trackerGrace (one) consecutive miss — its run
// resumes on reappearance, with the fused score decayed across the gap —
// and is forgotten beyond that.
func (t *Tracker) Observe(at time.Time, suspects []Suspect) {
	seen := make(map[Component]bool, len(suspects))
	for i := range suspects {
		c := suspects[i].Component
		tr, ok := t.open[c]
		if !ok {
			tr = &track{firstSeen: at}
			t.open[c] = tr
		}
		tr.windows++
		tr.fused = tr.fused*fusedDecay + suspects[i].Score
		tr.missed = 0
		suspects[i].FirstSeen = tr.firstSeen
		suspects[i].Windows = tr.windows
		suspects[i].Fused = tr.fused
		tr.last = suspects[i]
		seen[c] = true
	}
	for c, tr := range t.open {
		if seen[c] {
			continue
		}
		tr.fused *= fusedDecay
		tr.missed++
		if tr.missed > trackerGrace {
			delete(t.open, c)
		}
	}
}

// Fused returns the cross-window fused ranking over every component the
// tracker currently holds — including ones inside their grace window —
// ordered by (fused score desc, kind, identity) and bounded by
// maxFused (8). Each entry is the component's most recent per-window
// suspect with the continuity fields brought up to date; the slice is
// freshly allocated.
func (t *Tracker) Fused() []Suspect {
	out := make([]Suspect, 0, len(t.open))
	for c, tr := range t.open {
		s := tr.last
		s.Component = c
		s.FirstSeen = tr.firstSeen
		s.Windows = tr.windows
		s.Fused = tr.fused
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fused != out[j].Fused {
			return out[i].Fused > out[j].Fused
		}
		return out[i].Component.less(out[j].Component)
	})
	if len(out) > maxFused {
		out = out[:maxFused]
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
