package localize

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

var epoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// rec builds one flow record with the given bandwidth (Gb/s) and path.
func rec(id uint64, src, dst flow.Addr, gbps float64, switches ...flow.SwitchID) flow.Record {
	dur := time.Second
	return flow.Record{
		ID: id, Start: epoch.Add(time.Duration(id) * time.Millisecond), Duration: dur,
		Src: src, Dst: dst, Bytes: int64(gbps * 1e9 / 8 * dur.Seconds()),
		Switches: switches,
	}
}

func dpTypes(pairs ...flow.Pair) map[flow.Pair]parallel.Type {
	out := make(map[flow.Pair]parallel.Type, len(pairs))
	for _, p := range pairs {
		out[p] = parallel.TypeDP
	}
	return out
}

// TestLocalizeSwitchAlertNamesSwitch: a switch-bandwidth alert implicates
// exactly the switch's rows, so the flagged switch covers every implicated
// flow and no healthy one — Ochiai 1, strict top-1.
func TestLocalizeSwitchAlertNamesSwitch(t *testing.T) {
	job := Job{Records: []flow.Record{
		rec(1, 1, 2, 20, 10, 20, 11), // through degraded 20
		rec(2, 3, 4, 20, 12, 20, 13), // through degraded 20
		rec(3, 5, 6, 150, 10, 21, 11),
		rec(4, 7, 8, 150, 12, 21, 13),
	}}
	alert := diagnose.Alert{Kind: diagnose.AlertSwitchBandwidth, Switch: 20}
	suspects := Localize([]Job{job}, []diagnose.Alert{alert}, Config{})
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	top := suspects[0]
	if top.Component != SwitchComponent(20) {
		t.Fatalf("top suspect = %v, want switch sw-20 (list %+v)", top.Component, suspects)
	}
	if top.Coverage != 1 || top.Implicated != 2 || top.Healthy != 0 {
		t.Errorf("top = %+v, want coverage 1 over 2 implicated, 0 healthy", top)
	}
}

// TestLocalizeCrossStepNamesRank: cross-step alerts implicate the rank's
// flows; its NIC covers all of them and nothing else does without picking
// up healthy flows.
func TestLocalizeCrossStepNamesRank(t *testing.T) {
	job := Job{
		Records: []flow.Record{
			rec(1, 1, 2, 100, 10, 20, 11),
			rec(2, 1, 4, 100, 10, 21, 12),
			rec(3, 3, 4, 100, 12, 20, 11), // healthy, shares switches
			rec(4, 5, 2, 100, 10, 22, 11), // healthy, shares host 2's leaf
		},
		Alerts: []diagnose.Alert{
			{Kind: diagnose.AlertCrossStep, Rank: 1, Step: 3},
			{Kind: diagnose.AlertCrossStep, Rank: 1, Step: 4}, // dedup: same rank
		},
	}
	suspects := Localize([]Job{job}, nil, Config{})
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	if suspects[0].Component != HostComponent(1) {
		t.Fatalf("top suspect = %v, want host 10.0.0.1 (list %+v)", suspects[0].Component, suspects)
	}
}

// TestLocalizeCrossGroupContrastFindsSlowMember: a cross-group alert
// implicates every member's DP flows symmetrically; coverage cannot
// separate them, but the member behind the degraded NIC is the one whose
// flows are slow — the bandwidth contrast singles it out.
func TestLocalizeCrossGroupContrastFindsSlowMember(t *testing.T) {
	group := []flow.Addr{1, 2, 3}
	job := Job{
		Records: []flow.Record{
			rec(1, 1, 2, 1, 10),   // member 1 degraded: slow
			rec(2, 2, 3, 100, 10), // healthy ring segment
			rec(3, 3, 1, 1, 10),   // slow (touches member 1)
		},
		Types:    dpTypes(flow.MakePair(1, 2), flow.MakePair(2, 3), flow.MakePair(3, 1)),
		DPGroups: [][]flow.Addr{group},
		Alerts:   []diagnose.Alert{{Kind: diagnose.AlertCrossGroup, Group: 0, GroupAnchor: 1}},
	}
	suspects := Localize([]Job{job}, nil, Config{})
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	if suspects[0].Component != HostComponent(1) {
		t.Fatalf("top suspect = %v, want host of degraded member 1 (list %+v)",
			suspects[0].Component, suspects)
	}
	if suspects[0].Contrast <= 1 {
		t.Errorf("degraded member contrast = %v, want > 1", suspects[0].Contrast)
	}
}

// TestLocalizeLinkFromConsecutiveHops: when the slow implicated flows
// share one inter-switch edge, that link outranks the switches at either
// end (which also carry healthy or fast implicated traffic).
func TestLocalizeLinkFromConsecutiveHops(t *testing.T) {
	group := []flow.Addr{1, 2, 3, 4, 5, 6}
	job := Job{
		Records: []flow.Record{
			rec(1, 1, 2, 1, 10, 20, 11),   // over degraded link 10-20: slow
			rec(2, 3, 4, 100, 10, 21, 11), // same leaf, healthy spine
			rec(3, 5, 6, 100, 12, 20, 13), // same spine, healthy leaf
		},
		Types:    dpTypes(flow.MakePair(1, 2), flow.MakePair(3, 4), flow.MakePair(5, 6)),
		DPGroups: [][]flow.Addr{group},
		Alerts:   []diagnose.Alert{{Kind: diagnose.AlertCrossGroup, Group: 0, GroupAnchor: 1}},
	}
	suspects := Localize([]Job{job}, nil, Config{})
	if len(suspects) == 0 {
		t.Fatal("no suspects")
	}
	if want := LinkComponent(10, 20); suspects[0].Component != want {
		t.Fatalf("top suspect = %v, want %v (list %+v)", suspects[0].Component, want, suspects)
	}
}

// TestLocalizeSwitchAlertInsideJob: a switch-kind alert arriving through a
// job's alert list (not the fabric-level parameter) must still implicate
// the switch's rows — regression for the early nil return that ignored it.
func TestLocalizeSwitchAlertInsideJob(t *testing.T) {
	job := Job{
		Records: []flow.Record{
			rec(1, 1, 2, 20, 10, 20, 11),
			rec(2, 3, 4, 150, 10, 21, 11),
		},
		Alerts: []diagnose.Alert{{Kind: diagnose.AlertSwitchBandwidth, Switch: 20}},
	}
	suspects := Localize([]Job{job}, nil, Config{})
	if len(suspects) == 0 {
		t.Fatal("job-carried switch alert produced no suspects")
	}
	if suspects[0].Component != SwitchComponent(20) {
		t.Errorf("top suspect = %v, want switch sw-20", suspects[0].Component)
	}
}

// TestLocalizeFilterExcludesEvidence: a Filter rejecting an alert removes
// it from the implication evidence — with every alert filtered the window
// localizes to nothing, and a selective filter changes which rows are
// implicated exactly as if the alert had not fired.
func TestLocalizeFilterExcludesEvidence(t *testing.T) {
	job := Job{
		ID: 4,
		Records: []flow.Record{
			rec(1, 1, 2, 20, 10, 20, 11),
			rec(2, 1, 4, 20, 10, 21, 12),
			rec(3, 3, 4, 150, 12, 20, 11),
		},
		Alerts: []diagnose.Alert{{Kind: diagnose.AlertCrossStep, Rank: 1}},
	}
	swAlert := []diagnose.Alert{{Kind: diagnose.AlertSwitchBandwidth, Switch: 20}}

	drop := Config{Filter: func(jobID int, a diagnose.Alert) bool { return false }}
	if s := Localize([]Job{job}, swAlert, drop); s != nil {
		t.Errorf("all-rejecting filter still produced suspects: %+v", s)
	}

	// Filter out only the fabric-level switch alert, keyed on the job id
	// the filter receives (0 for fabric alerts): the result must equal a
	// run where that alert never fired.
	var sawJob bool
	keepJob := Config{Filter: func(jobID int, a diagnose.Alert) bool {
		if jobID == 4 {
			sawJob = true
		}
		return jobID != 0
	}}
	got := Localize([]Job{job}, swAlert, keepJob)
	want := Localize([]Job{job}, nil, Config{})
	if !reflect.DeepEqual(got, want) {
		t.Errorf("filtered run diverges from alert-free run:\ngot  %+v\nwant %+v", got, want)
	}
	if !sawJob {
		t.Error("filter never saw the job's stable id")
	}
}

// TestLocalizeNoAlertsNoSuspects: a quiet window localizes to nothing.
func TestLocalizeNoAlertsNoSuspects(t *testing.T) {
	job := Job{Records: []flow.Record{rec(1, 1, 2, 100, 10)}}
	if s := Localize([]Job{job}, nil, Config{}); s != nil {
		t.Errorf("suspects = %+v, want nil without alerts", s)
	}
}

// TestLocalizeDeterministicRanking: the suspect list is identical across
// repeated runs (map iteration must not leak into scores or order).
func TestLocalizeDeterministicRanking(t *testing.T) {
	var records []flow.Record
	for i := uint64(1); i <= 40; i++ {
		src := flow.Addr(i % 8)
		dst := flow.Addr((i + 3) % 8)
		if src == dst {
			dst++
		}
		gbps := 100.0
		if i%5 == 0 {
			gbps = 2
		}
		records = append(records, rec(i, src, dst, gbps,
			flow.SwitchID(10+i%3), flow.SwitchID(20+i%4), flow.SwitchID(10+(i+1)%3)))
	}
	job := Job{
		Records: records,
		Alerts: []diagnose.Alert{
			{Kind: diagnose.AlertCrossStep, Rank: 2},
			{Kind: diagnose.AlertCrossStep, Rank: 5},
		},
	}
	alert := []diagnose.Alert{{Kind: diagnose.AlertSwitchBandwidth, Switch: 21}}
	want := Localize([]Job{job}, alert, Config{})
	if len(want) < 3 {
		t.Fatalf("suspects = %d, want a populated list", len(want))
	}
	for i := 0; i < 10; i++ {
		if got := Localize([]Job{job}, alert, Config{}); !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d diverged:\nwant %+v\ngot  %+v", i, want, got)
		}
	}
}

// fanOut is one job whose alerted rank 1 sends one flow to each of n other
// hosts over no switch path: n+1 host suspects, all above minScore.
func fanOut(n int) Job {
	job := Job{Alerts: []diagnose.Alert{{Kind: diagnose.AlertCrossStep, Rank: 1}}}
	for i := 0; i < n; i++ {
		job.Records = append(job.Records, rec(uint64(i+1), 1, flow.Addr(i+2), 100))
	}
	return job
}

// minScoreJob is one job whose DP group {2, 3} is alerted: the group's one
// DP flow 2→3 is implicated, and each member also carries healthy PP
// flows, so each member's Ochiai score is 1/sqrt(1+healthy) (equal
// bandwidths: contrast 1).
func minScoreJob(healthy int) Job {
	job := Job{
		Records:  []flow.Record{rec(1, 2, 3, 100)},
		Types:    dpTypes(flow.MakePair(2, 3)),
		DPGroups: [][]flow.Addr{{2, 3}},
		Alerts:   []diagnose.Alert{{Kind: diagnose.AlertCrossGroup, Group: 0}},
	}
	id := uint64(1)
	for i := 0; i < healthy; i++ {
		job.Records = append(job.Records, rec(id+1, 2, 10, 100), rec(id+2, 3, 11, 100))
		id += 2
	}
	return job
}

// TestLocalizeLimits: Localize keeps the first maxSuspects (8) of the
// ranking and drops every component scoring below minScore (0.02).
func TestLocalizeLimits(t *testing.T) {
	// 8 candidates all survive; of 9, the last is cut.
	for _, n := range []int{7, 8} {
		job := fanOut(n)
		all := rank([]Job{job}, nil, Config{}, 0)
		if len(all) != n+1 {
			t.Fatalf("fan-out to %d hosts ranked %d suspects, want %d", n, len(all), n+1)
		}
		want := all
		if len(want) > 8 {
			want = want[:8]
		}
		got := Localize([]Job{job}, nil, Config{})
		if len(got) != 8 || !reflect.DeepEqual(got, want) {
			t.Errorf("%d candidates: Localize returned %d suspects %+v, want the first %d of the ranking",
				n+1, len(got), got, len(want))
		}
	}

	// 1/sqrt(1+2499) is exactly minScore: both members rank at it. One
	// more healthy flow each puts them below it, and with them every
	// suspect.
	at := Localize([]Job{minScoreJob(2499)}, nil, Config{})
	if len(at) != 2 || at[0].Component != HostComponent(2) || at[1].Component != HostComponent(3) {
		t.Fatalf("at minScore: suspects = %+v, want hosts 2 and 3", at)
	}
	for _, s := range at {
		if s.Score != 0.02 {
			t.Errorf("at minScore: %v scores %v, want exactly 0.02", s.Component, s.Score)
		}
	}
	if got := Localize([]Job{minScoreJob(2500)}, nil, Config{}); got != nil {
		t.Errorf("below minScore: suspects = %+v, want nil", got)
	}
}

// TestLocalizeContrastClamp: rank 1's flow over switch 10 is ratio times
// slower than its flow over switch 11, so switch 10's contrast is ratio
// and switch 11's its reciprocal — each clamped to [1/16, 16]
// (maxContrast).
func TestLocalizeContrastClamp(t *testing.T) {
	for _, c := range []struct{ ratio, want float64 }{
		{8, 8},
		{16, 16},
		{32, 16},
	} {
		job := Job{
			Records: []flow.Record{
				rec(1, 1, 2, 100/c.ratio, 10),
				rec(2, 1, 3, 100, 11),
			},
			Alerts: []diagnose.Alert{{Kind: diagnose.AlertCrossStep, Rank: 1}},
		}
		contrast := make(map[Component]float64)
		for _, s := range Localize([]Job{job}, nil, Config{}) {
			contrast[s.Component] = s.Contrast
		}
		if got := contrast[SwitchComponent(10)]; got != c.want {
			t.Errorf("ratio %v: slow switch contrast = %v, want %v", c.ratio, got, c.want)
		}
		if got := contrast[SwitchComponent(11)]; got != 1/c.want {
			t.Errorf("ratio %v: fast switch contrast = %v, want %v", c.ratio, got, 1/c.want)
		}
	}
}

// TestTrackerContinuity: a suspect that misses trackerGrace (one) window
// keeps its run; a second consecutive miss forgets it, and its
// reappearance starts a fresh run.
func TestTrackerContinuity(t *testing.T) {
	tr := NewTracker(TrackerConfig{})
	at := epoch
	w0 := []Suspect{{Component: SwitchComponent(7)}, {Component: HostComponent(3)}}
	tr.Observe(at, w0)
	if w0[0].Windows != 1 || !w0[0].FirstSeen.Equal(at) {
		t.Fatalf("window 0 suspect = %+v, want windows 1 first seen %v", w0[0], at)
	}

	// Switch 7 persists, host 3 misses one window: inside the grace.
	w1 := []Suspect{{Component: SwitchComponent(7)}}
	tr.Observe(at.Add(time.Minute), w1)
	if w1[0].Windows != 2 || !w1[0].FirstSeen.Equal(at) {
		t.Errorf("window 1 suspect = %+v, want windows 2 first seen %v", w1[0], at)
	}
	if len(tr.Snapshot().Tracks) != 2 {
		t.Errorf("open = %d, want 2 (host suspect inside its grace)", len(tr.Snapshot().Tracks))
	}

	// A second consecutive miss is past the grace.
	tr.Observe(at.Add(2*time.Minute), []Suspect{{Component: SwitchComponent(7)}})
	if len(tr.Snapshot().Tracks) != 1 {
		t.Errorf("open = %d, want 1 (host suspect forgotten)", len(tr.Snapshot().Tracks))
	}

	// Host 3 reappears: a fresh run.
	w3 := []Suspect{{Component: HostComponent(3)}}
	tr.Observe(at.Add(3*time.Minute), w3)
	if w3[0].Windows != 1 || !w3[0].FirstSeen.Equal(at.Add(3*time.Minute)) {
		t.Errorf("reappeared suspect = %+v, want a new run", w3[0])
	}
}

// TestTrackerFlappingFaultKeepsRun is the regression test for the
// historical forget-on-first-miss bug: a flapping fault — suspect in
// alternating windows — reset FirstSeen, Windows and the fused score on
// every reappearance, so a fault flapping for an hour looked like a
// never-ending parade of brand-new one-window suspects. With the default
// one-window grace the run survives the gaps.
func TestTrackerFlappingFaultKeepsRun(t *testing.T) {
	// Products with fusedDecay (0.5) are exact, so the fused values are:
	// 0.5 in window 0, then 0.25·0.5 + 0.5 and 0.3125·0.5 + 0.5 — each
	// hit adding its score to the sum decayed across the gap.
	tr := NewTracker(TrackerConfig{})
	fused := []float64{0.5, 0, 0.625, 0, 0.65625}
	at := epoch
	sw := SwitchComponent(4)
	for i := 0; i < 6; i++ {
		var w []Suspect
		if i%2 == 0 { // fires in windows 0, 2, 4
			w = []Suspect{{Component: sw, Score: 0.5}}
		}
		tr.Observe(at.Add(time.Duration(i)*time.Minute), w)
		if i%2 == 0 {
			s := w[0]
			if !s.FirstSeen.Equal(at) {
				t.Fatalf("window %d: FirstSeen = %v, want %v (run must survive one-window gaps)", i, s.FirstSeen, at)
			}
			if want := i/2 + 1; s.Windows != want {
				t.Fatalf("window %d: Windows = %d, want %d", i, s.Windows, want)
			}
			if want := fused[i]; s.Fused != want {
				t.Fatalf("window %d: Fused = %v, want %v (score keeps accumulating)", i, s.Fused, want)
			}
		}
		if len(tr.Snapshot().Tracks) != 1 {
			t.Fatalf("window %d: open = %d, want 1 (grace keeps the suspect)", i, len(tr.Snapshot().Tracks))
		}
	}
	// Two consecutive misses exceed the grace: the run ends.
	tr.Observe(at.Add(6*time.Minute), nil)
	tr.Observe(at.Add(7*time.Minute), nil)
	if len(tr.Snapshot().Tracks) != 0 {
		t.Errorf("open = %d, want 0 after two consecutive misses", len(tr.Snapshot().Tracks))
	}
	w := []Suspect{{Component: sw, Score: 0.5}}
	tr.Observe(at.Add(8*time.Minute), w)
	if w[0].Windows != 1 || w[0].Fused != 0.5 {
		t.Errorf("post-forget reappearance = %+v, want a fresh run", w[0])
	}
}

// TestTrackerFusedRanking: the fused list ranks by the decayed running
// score across windows, not the latest window's snapshot — a component
// that keeps scoring overtakes a one-window spike, whose stale evidence
// fades — and survivors inside their grace window stay listed.
func TestTrackerFusedRanking(t *testing.T) {
	tr := NewTracker(TrackerConfig{}) // fusedDecay 0.5
	at := epoch
	steady := SwitchComponent(1) // scores 0.75 every window
	spike := HostComponent(9)    // scores 1.25 once
	tr.Observe(at, []Suspect{{Component: spike, Score: 1.25}, {Component: steady, Score: 0.75}})
	tr.Observe(at.Add(time.Minute), []Suspect{{Component: steady, Score: 0.75}})

	fused := tr.Fused()
	if len(fused) != 2 {
		t.Fatalf("fused = %d entries, want 2 (spike still inside grace)", len(fused))
	}
	if fused[0].Component != steady || fused[0].Fused != 1.125 { // 0.75*0.5 + 0.75
		t.Errorf("top fused = %+v, want the steady switch at 1.125", fused[0])
	}
	if fused[1].Component != spike || fused[1].Fused != 0.625 { // 1.25 decayed across the miss
		t.Errorf("second fused = %+v, want the faded spike at 0.625", fused[1])
	}
	if fused[0].Windows != 2 || !fused[0].FirstSeen.Equal(at) {
		t.Errorf("steady continuity = windows %d first seen %v", fused[0].Windows, fused[0].FirstSeen)
	}

	// maxFused bounds the list: 8 components all stay listed; of 9, the
	// lowest-scoring one is cut.
	for _, n := range []int{8, 9} {
		many := NewTracker(TrackerConfig{})
		window := make([]Suspect, n)
		for i := range window {
			window[i] = Suspect{Component: HostComponent(flow.Addr(i)), Score: float64(n - i)}
		}
		many.Observe(at, window)
		got := many.Fused()
		if len(got) != 8 {
			t.Fatalf("%d suspects: fused = %d entries, want 8", n, len(got))
		}
		for i, s := range got {
			if s.Component != HostComponent(flow.Addr(i)) {
				t.Errorf("%d suspects: fused[%d] = %v, want the %d-th highest score", n, i, s.Component, i+1)
			}
		}
	}
}

func TestComponentString(t *testing.T) {
	cases := map[string]Component{
		"switch sw-3":     SwitchComponent(3),
		"link sw-9->sw-2": LinkComponent(9, 2),
		"host 10.0.0.5":   HostComponent(5),
	}
	for want, c := range cases {
		if got := c.String(); got != want {
			t.Errorf("%+v.String() = %q, want %q", c, got, want)
		}
	}
}
