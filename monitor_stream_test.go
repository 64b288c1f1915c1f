package llmprism

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/testbed"
)

// pushAll replays records through a stream session in fixed-size batches
// and returns every report in window order.
func pushAll(t *testing.T, s *MonitorStream, records []FlowRecord, batch int) []*Report {
	t.Helper()
	var reports []*Report
	for lo := 0; lo < len(records); lo += batch {
		hi := lo + batch
		if hi > len(records) {
			hi = len(records)
		}
		got, err := s.Push(records[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, got...)
	}
	got, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(reports, got...)
}

// streamAll opens m's stream session and replays records through it with
// pushAll.
func streamAll(t *testing.T, m *Monitor, records []FlowRecord, batch int) []*Report {
	t.Helper()
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return pushAll(t, s, records, batch)
}

// TestMonitorStreamMatchesFeed is the streaming engine's acceptance gate:
// for an in-order trace, the pipelined stream session must produce reports
// deep-equal — window bounds, job ids, alerts, float-typed series,
// incidents, localization suspects — to the serial feed/flush loop's (the
// feedOracle reference), for every worker count and pipeline depth. Run
// with -race to verify the window handoff.
func TestMonitorStreamMatchesFeed(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const window = 5 * time.Second

	feed := func(workers int) []*Report {
		m, err := NewMonitor(New(WithWorkers(workers), WithLocalization()), topo, window)
		if err != nil {
			t.Fatal(err)
		}
		return feedAll(t, m, records, 500)
	}

	want := feed(1)
	if len(want) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(want))
	}
	if !reflect.DeepEqual(want, feed(8)) {
		t.Fatal("concurrent feed oracle diverges from sequential")
	}

	for _, workers := range []int{1, 8} {
		for _, depth := range []int{1, 3} {
			m, err := NewMonitor(New(WithWorkers(workers), WithLocalization()), topo, window, WithPipelineDepth(depth))
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := pushAll(t, s, records, 500)
			if s.Late() != 0 {
				t.Errorf("workers=%d depth=%d: late = %d, want 0", workers, depth, s.Late())
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d depth=%d: stream reports diverge from the feed oracle", workers, depth)
			}
		}
	}
}

// TestMonitorStreamPermutationInvariance is the ordering property the
// watermark guarantees: any arrival permutation whose records stay within
// the allowed lateness yields bit-identical reports — localization
// suspects included — and zero late drops.
func TestMonitorStreamPermutationInvariance(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window   = 5 * time.Second
		lateness = 2 * time.Second
	)

	run := func(recs []FlowRecord, depth int) []*Report {
		m, err := NewMonitor(New(WithWorkers(4), WithLocalization()), topo, window,
			WithLateness(lateness), WithPipelineDepth(depth))
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reports := pushAll(t, s, recs, 300)
		if s.Late() != 0 {
			t.Fatalf("late = %d, want 0 (permutation stayed within lateness)", s.Late())
		}
		return reports
	}

	want := run(records, 1)
	for seed := int64(0); seed < 4; seed++ {
		perm := permuteWithinLateness(records, lateness/2, seed)
		if got := run(perm, 3); !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: permuted arrival diverges from in-order run", seed)
		}
	}
}

// permuteWithinLateness shuffles records within consecutive time chunks of
// the given span, bounding every record's arrival displacement below the
// lateness the monitor allows. The first record stays first, keeping the
// window grid anchor unchanged.
func permuteWithinLateness(records []FlowRecord, span time.Duration, seed int64) []FlowRecord {
	out := append([]FlowRecord(nil), records...)
	rng := rand.New(rand.NewSource(seed))
	lo := 1 // keep the anchor record in place
	for lo < len(out) {
		hi := lo
		for hi < len(out) && out[hi].Start.Sub(out[lo].Start) < span {
			hi++
		}
		rng.Shuffle(hi-lo, func(i, j int) { out[lo+i], out[lo+j] = out[lo+j], out[lo+i] })
		lo = hi
	}
	return out
}

// TestMonitorStreamLateRecordsDropped pins the late policy: a record past
// the lateness bound is dropped and counted, never misfiled into a newer
// window.
func TestMonitorStreamLateRecordsDropped(t *testing.T) {
	m, topo := monitorFixture(t)
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	batch := []FlowRecord{
		monitorRecord(1, 0, topo),
		monitorRecord(2, 15*time.Second, topo), // closes window [0,10)
	}
	// Window 0 may be released by either push or by Close, depending on
	// when its analysis finishes: count every report.
	reports, err := s.Push(batch)
	if err != nil {
		t.Fatal(err)
	}
	more, err := s.Push([]FlowRecord{monitorRecord(3, 5*time.Second, topo)})
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, more...)
	if s.Late() != 1 {
		t.Errorf("late = %d, want 1", s.Late())
	}
	tail, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, tail...)
	var total int
	for _, r := range reports {
		for _, j := range r.Jobs {
			total += len(j.Records)
		}
	}
	if total != 2 {
		t.Errorf("records analyzed = %d, want 2 (late record dropped)", total)
	}
}

// TestMonitorStreamHopped checks overlapping windows against the direct
// per-window reference: each grid window's analysis must equal analyzing
// its record slice from scratch, and every window must carry the right
// bounds — empty grid slots included.
func TestMonitorStreamHopped(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window = 8 * time.Second
		hop    = 4 * time.Second
	)
	m, err := NewMonitor(New(WithWorkers(2)), topo, window, WithHop(hop))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reports := pushAll(t, s, records, 400)
	if len(reports) < 4 {
		t.Fatalf("windows = %d, want >= 4", len(reports))
	}

	sorted := append([]FlowRecord(nil), records...)
	flow.SortByStart(sorted)
	// The grid's first emitted window is the leading partial phase
	// covering the anchor: it starts (width/hop - 1) hops before it.
	anchor := sorted[0].Start.Add(-(window/hop - 1) * hop)
	for i, r := range reports {
		wantStart := anchor.Add(time.Duration(i) * hop)
		if r.Window.Seq != i || !r.Window.Start.Equal(wantStart) || !r.Window.End.Equal(wantStart.Add(window)) {
			t.Fatalf("report %d window = %+v, want seq %d at %v", i, r.Window, i, wantStart)
		}
		recs := flow.Window(sorted, r.Window.Start, r.Window.End)
		if len(recs) == 0 {
			if len(r.Jobs) != 0 {
				t.Errorf("window %d should be empty", i)
			}
			continue
		}
		want, err := New(WithWorkers(1)).Analyze(recs, topo)
		if err != nil {
			t.Fatal(err)
		}
		got := *r
		got.Window = WindowInfo{}
		got.Incidents = nil
		got.Jobs = append([]JobReport(nil), r.Jobs...)
		for j := range got.Jobs {
			got.Jobs[j].JobID = 0
		}
		if !reflect.DeepEqual(&got, want) {
			t.Errorf("window %d diverges from direct analysis of its slice", i)
		}
	}
	// Cross-window continuity: the same job keeps one id in every window.
	ids := map[JobID]int{}
	for _, r := range reports {
		for _, j := range r.Jobs {
			ids[j.JobID]++
		}
	}
	for id, n := range ids {
		if id == 0 {
			t.Error("monitor report left JobID unset")
		}
		if n < 2 {
			t.Errorf("job %d appeared in only %d windows; identity not carried", id, n)
		}
	}
}

// TestMonitorStreamIncidentContinuity degrades a spine switch for most of
// the trace and checks the switch-bandwidth alerts it raises window after
// window surface as one ongoing incident with a stable first-seen time —
// not an unrelated alert pile per window.
func TestMonitorStreamIncidentContinuity(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	// Same shape as TestEndToEndSwitchDegradationDetection: 3 nodes per
	// leaf makes every DP group span leaves, so collectives traverse the
	// degraded spine in every window.
	topoSpec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
	topo, err := NewTopology(topoSpec)
	if err != nil {
		t.Fatal(err)
	}
	badSpine := topo.SpineSwitch(1)
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "incident-continuity", Topo: topoSpec, Jobs: jobs,
		Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
			Kind: testbed.FaultSwitchDegrade, Switch: badSpine,
			At: 15 * time.Second, Until: 60 * time.Second, Factor: 0.15,
		}}},
		Horizon: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(New(WithSwitchBucket(5*time.Second), WithLocalization()),
		res.Topo, 15*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	reports := pushAll(t, s, res.Records, 2000)

	var firstSeen time.Time
	maxWindows := 0
	for _, r := range reports {
		for _, inc := range r.Incidents {
			if inc.Key.Kind != AlertSwitchBandwidth || inc.Key.Switch != badSpine {
				continue
			}
			if firstSeen.IsZero() {
				firstSeen = inc.FirstSeen
			} else if inc.StillFiring && !inc.FirstSeen.Equal(firstSeen) {
				t.Errorf("incident first-seen drifted: %v -> %v", firstSeen, inc.FirstSeen)
			}
			if inc.Windows > maxWindows {
				maxWindows = inc.Windows
			}
		}
	}
	if firstSeen.IsZero() {
		t.Fatal("degraded spine raised no switch-bandwidth incident")
	}
	if maxWindows < 2 {
		t.Errorf("incident spanned %d windows, want >= 2 (one ongoing incident, not per-window alerts)", maxWindows)
	}

	// Localization continuity rides the same in-order path: the degraded
	// spine must top the suspect list, keep its first-seen stamp and
	// accumulate windows while it stays suspect.
	var suspectFirst time.Time
	suspectWindows := 0
	for _, r := range reports {
		if len(r.Suspects) == 0 {
			continue
		}
		top := r.Suspects[0]
		if top.Component != (SuspectComponent{Kind: ComponentSwitch, Switch: badSpine}) {
			continue
		}
		if suspectFirst.IsZero() {
			suspectFirst = top.FirstSeen
		} else if !top.FirstSeen.Equal(suspectFirst) {
			t.Errorf("suspect first-seen drifted: %v -> %v", suspectFirst, top.FirstSeen)
		}
		if top.Windows > suspectWindows {
			suspectWindows = top.Windows
		}
	}
	if suspectFirst.IsZero() {
		t.Fatal("degraded spine never topped the suspect ranking")
	}
	if suspectWindows < 2 {
		t.Errorf("spine stayed top suspect for %d windows, want >= 2", suspectWindows)
	}
}

// TestMonitorStreamSuspectsMatchStandalone pins where the monitor
// localizes: in annotate, after JobIDs are stamped, whether or not chronic
// suppression is on. Without suppression nothing filters the evidence, so
// each window's suspects must equal a standalone localizing analysis of
// that window's records, once the tracker's continuity stamps are cleared.
func TestMonitorStreamSuspectsMatchStandalone(t *testing.T) {
	records, topo, _ := faultedTrace(t)
	const window = 10 * time.Second
	m, err := NewMonitor(New(WithSwitchBucket(5*time.Second), WithLocalization()), topo, window)
	if err != nil {
		t.Fatal(err)
	}
	reports := streamAll(t, m, records, 1000)
	localized := 0
	for _, r := range reports {
		var in []FlowRecord
		for _, rec := range records {
			if !rec.Start.Before(r.Window.Start) && rec.Start.Before(r.Window.End) {
				in = append(in, rec)
			}
		}
		want, err := New(WithSwitchBucket(5*time.Second), WithLocalization()).Analyze(in, topo)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]Suspect, len(r.Suspects))
		for i, s := range r.Suspects {
			s.FirstSeen, s.Windows, s.Fused = time.Time{}, 0, 0
			got[i] = s
		}
		if len(want.Suspects) == 0 {
			want.Suspects = []Suspect{}
		}
		if !reflect.DeepEqual(want.Suspects, got) {
			t.Errorf("window %d: suspects diverge from a standalone analysis\nwant %+v\ngot  %+v",
				r.Window.Seq, want.Suspects, got)
		}
		if len(got) > 0 {
			localized++
		}
	}
	if localized == 0 {
		t.Fatal("no window localized the degraded spine; the comparison is vacuous")
	}
}

func TestMonitorStreamCanceled(t *testing.T) {
	records, topo := concurrencyTrace(t)
	m, err := NewMonitor(New(), topo, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s, err := m.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Push(records)
	if err == nil {
		_, err = s.Close()
	}
	if err == nil {
		t.Fatal("canceled context did not abort streaming analysis")
	}
	if _, err2 := s.Push(nil); err2 == nil {
		t.Error("session should stay dead after an error")
	}
}

func TestMonitorFeedStreamExclusive(t *testing.T) {
	m, _ := monitorFixture(t)
	if _, err := m.Stream(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Stream(context.Background()); err == nil {
		t.Error("second Stream session should refuse")
	}
}

// TestMonitorFlushSpansWindows pins the flush fix: with a lateness bound
// the feed oracle's buffer can span several grid windows when the stream
// ends, and each must get its own bounds-correct report — byte-identical
// to what Stream.Close emits for the same trace.
func TestMonitorFlushSpansWindows(t *testing.T) {
	newM := func() (*Monitor, *topology.Topology) {
		topo, err := topology.New(TopologySpec{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(New(), topo, 10*time.Second, WithLateness(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return m, topo
	}
	m, topo := newM()
	oracle := &feedOracle{m: m}
	batch := []FlowRecord{
		monitorRecord(1, 0, topo),
		monitorRecord(2, 12*time.Second, topo),
		monitorRecord(3, 14*time.Second, topo),
	}
	// Nothing closes: newest (14s) < window + lateness (15s).
	reports, err := oracle.feed(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("premature reports: %d", len(reports))
	}
	flushed, err := oracle.flush()
	if err != nil {
		t.Fatal(err)
	}
	if len(flushed) != 2 {
		t.Fatalf("flush reports = %d, want 2 (buffer spans two grid windows)", len(flushed))
	}
	for i, r := range flushed {
		var n int
		for _, j := range r.Jobs {
			n += len(j.Records)
		}
		wantRecs := []int{1, 2}[i]
		if n != wantRecs {
			t.Errorf("flush window %d holds %d records, want %d", i, n, wantRecs)
		}
		for _, j := range r.Jobs {
			for _, rec := range j.Records {
				if rec.Start.Before(r.Window.Start) || !rec.Start.Before(r.Window.End) {
					t.Errorf("window %d record at %v outside bounds %+v", i, rec.Start, r.Window)
				}
			}
		}
	}

	m2, _ := newM()
	if streamed := streamAll(t, m2, batch, len(batch)); !reflect.DeepEqual(flushed, streamed) {
		t.Error("feed+flush reports diverge from Stream+Close on the same trace")
	}
}

// TestMonitorHugeGapGuard pins the corrupt-timestamp guard at the monitor
// level, on the stream and on the feed oracle: one record decades ahead
// yields a handful of reports — with feed+flush and Stream+Close still
// byte-identical — not one empty report per grid slot across the gap.
func TestMonitorHugeGapGuard(t *testing.T) {
	newM := func() *Monitor {
		topo, err := topology.New(TopologySpec{Nodes: 4})
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(New(), topo, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	topo, err := topology.New(TopologySpec{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := []FlowRecord{
		monitorRecord(1, 0, topo),
		monitorRecord(2, 10*365*24*time.Hour, topo),
	}

	fed := feedAll(t, newM(), batch, len(batch))
	if len(fed) > 3 {
		t.Fatalf("feed oracle emitted %d reports across the gap, want a handful", len(fed))
	}
	if streamed := streamAll(t, newM(), batch, len(batch)); !reflect.DeepEqual(fed, streamed) {
		t.Error("gap-skipping feed oracle reports diverge from Stream's")
	}
}

func TestMonitorStreamPushAfterClose(t *testing.T) {
	m, topo := monitorFixture(t)
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]FlowRecord{monitorRecord(1, 0, topo)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]FlowRecord{monitorRecord(2, time.Second, topo)}); err == nil {
		t.Error("push after Close should refuse")
	}
	if _, err := s.Close(); err == nil {
		t.Error("double Close should refuse")
	}
}

// TestMonitorHugeGapGuardWithLateness is the gap guard's equivalence
// corner: with a nonzero lateness bound the engine's push-time jump stops
// at the watermark while the flush jump does not, and the feed oracle must
// mirror both so the two loops still emit identical report sequences.
func TestMonitorHugeGapGuardWithLateness(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	newM := func() *Monitor {
		m, err := NewMonitor(New(), topo, 10*time.Second, WithLateness(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	batch := []FlowRecord{
		monitorRecord(1, 0, topo),
		monitorRecord(2, 10*365*24*time.Hour, topo),
	}

	fed := feedAll(t, newM(), batch, len(batch))
	streamed := streamAll(t, newM(), batch, len(batch))
	if len(fed) > 4 {
		t.Fatalf("feed oracle emitted %d reports across the gap, want a handful", len(fed))
	}
	if !reflect.DeepEqual(fed, streamed) {
		t.Errorf("gap-skipping feed oracle reports diverge from Stream's under lateness:\nfeed %d reports, stream %d", len(fed), len(streamed))
	}
}

// TestMonitorStreamPreAnchorStraggler pins the negative-k grid at the
// monitor level: a within-lateness record older than the first batch's
// minimum lands in its own earlier window instead of being dropped.
func TestMonitorStreamPreAnchorStraggler(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(New(), topo, 10*time.Second, WithLateness(6*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]FlowRecord{monitorRecord(1, 10*time.Second, topo)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]FlowRecord{monitorRecord(2, 5*time.Second, topo)}); err != nil {
		t.Fatal(err)
	}
	if s.Late() != 0 {
		t.Fatalf("late = %d, want 0 (straggler within lateness)", s.Late())
	}
	reports, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	epoch := monitorRecord(0, 0, topo).Start
	if !reports[0].Window.Start.Equal(epoch) || !reports[0].Window.End.Equal(epoch.Add(10*time.Second)) {
		t.Errorf("straggler window = %+v, want [0s,10s)", reports[0].Window)
	}
	if n := len(reports[0].Jobs); n != 1 {
		t.Errorf("straggler window jobs = %d, want 1", n)
	}
}
