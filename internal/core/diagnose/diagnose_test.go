package diagnose

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
)

var epoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// makeTimeline builds a synthetic timeline with the given step durations
// (step 0 is a truncated stub, as Reconstruct produces).
func makeTimeline(rank flow.Addr, durs []time.Duration, dpDurs []time.Duration) *timeline.Timeline {
	tl := &timeline.Timeline{Rank: rank}
	cursor := epoch
	for i, d := range durs {
		dp := 50 * time.Millisecond
		if dpDurs != nil {
			dp = dpDurs[i]
		}
		end := cursor.Add(d)
		tl.Steps = append(tl.Steps, timeline.Step{
			Index:   i,
			Start:   cursor,
			End:     end,
			DPStart: end.Add(-dp),
			DPEnd:   end,
		})
		cursor = end
	}
	return tl
}

func uniformDurs(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

func TestCrossStepFlagsSlowStep(t *testing.T) {
	durs := uniformDurs(12, time.Second)
	durs[7] = 3 * time.Second
	tls := map[flow.Addr]*timeline.Timeline{
		1: makeTimeline(1, durs, nil),
	}
	alerts := CrossStep(tls, Config{})
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Kind != AlertCrossStep || a.Rank != 1 || a.Step != 7 {
		t.Errorf("alert = %+v, want cross-step rank 1 step 7", a)
	}
	if a.Value < 2.9 || a.Value > 3.1 {
		t.Errorf("alert value = %v, want ≈ 3", a.Value)
	}
}

func TestCrossStepQuietOnUniformSteps(t *testing.T) {
	tls := map[flow.Addr]*timeline.Timeline{
		1: makeTimeline(1, uniformDurs(12, time.Second), nil),
	}
	if alerts := CrossStep(tls, Config{}); len(alerts) != 0 {
		t.Errorf("uniform steps raised %d alerts", len(alerts))
	}
}

// TestCrossStepRespectsMinSamples: a slow step is judged only once
// minSamples (6) steps, after the skipped first one, form its baseline.
func TestCrossStepRespectsMinSamples(t *testing.T) {
	for _, c := range []struct{ steps, slow, alerts int }{
		{4, 2, 0}, // too few steps to judge at all
		{7, 6, 0}, // 5 baseline steps before the slow one
		{8, 7, 1}, // 6
	} {
		durs := uniformDurs(c.steps, time.Second)
		durs[c.slow] = 5 * time.Second
		tls := map[flow.Addr]*timeline.Timeline{1: makeTimeline(1, durs, nil)}
		if got := len(CrossStep(tls, Config{})); got != c.alerts {
			t.Errorf("%d steps, step %d slow: %d alerts, want %d", c.steps, c.slow, got, c.alerts)
		}
	}
}

// TestCrossStepSkipsFragmentedRanks pins the fragment rule. A rank whose
// steps reconstruction split into near-zero fragments, with a whole step
// between runs of them, raises nothing beside two peers stepping every
// 2 s. The rank alone, without peers, is judged against itself and fires
// on every whole step. And fragmentRatio in literal numbers: a rank of
// 1 s steps with one 5 s step beside the 2 s peers sits exactly at half
// the job's step and is judged (one alert); at 0.99 s it is skipped.
func TestCrossStepSkipsFragmentedRanks(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var frag []time.Duration
	frag = append(frag, ms(1170))
	for i := 0; i < 3; i++ {
		frag = append(frag, uniformDurs(10, ms(5))...)
		frag = append(frag, ms(1640))
	}
	peers := func() map[flow.Addr]*timeline.Timeline {
		return map[flow.Addr]*timeline.Timeline{
			1: makeTimeline(1, uniformDurs(12, 2*time.Second), nil),
			2: makeTimeline(2, uniformDurs(12, 2*time.Second), nil),
		}
	}
	tls := peers()
	tls[3] = makeTimeline(3, frag, nil)
	if got := CrossStep(tls, Config{}); len(got) != 0 {
		t.Errorf("fragmented rank beside whole-step peers: %d alerts, want 0", len(got))
	}
	alone := map[flow.Addr]*timeline.Timeline{3: makeTimeline(3, frag, nil)}
	if got := len(CrossStep(alone, Config{})); got != 3 {
		t.Errorf("fragmented rank alone: %d alerts, want 3 (one per whole step)", got)
	}
	for _, c := range []struct {
		step   time.Duration
		alerts int
	}{
		{ms(990), 0},
		{ms(1000), 1},
	} {
		durs := append(uniformDurs(11, c.step), 5*time.Second)
		tls := peers()
		tls[3] = makeTimeline(3, durs, nil)
		got := CrossStep(tls, Config{})
		if len(got) != c.alerts {
			t.Errorf("rank of %v steps beside 2s peers: %d alerts, want %d", c.step, len(got), c.alerts)
		}
		for _, a := range got {
			if a.Rank != 3 || a.Step != 11 {
				t.Errorf("alert = %+v, want rank 3 step 11", a)
			}
		}
	}
}

// TestSigmaKIsThree pins k = 3 in literal numbers: each detector's outlier
// sits at 2.99σ (no alert) or 3.01σ (alert) of a baseline with mean 1 s
// and population deviation 0.1 s (cross-step), or 100 ms and 10 ms
// (cross-group, leave-one-out over the other six groups).
func TestSigmaKIsThree(t *testing.T) {
	for _, c := range []struct {
		slow   time.Duration
		alerts int
	}{
		{1299 * time.Millisecond, 0},
		{1301 * time.Millisecond, 1},
	} {
		durs := []time.Duration{time.Second, 900 * time.Millisecond, 1100 * time.Millisecond,
			900 * time.Millisecond, 1100 * time.Millisecond, 900 * time.Millisecond,
			1100 * time.Millisecond, c.slow}
		tls := map[flow.Addr]*timeline.Timeline{1: makeTimeline(1, durs, nil)}
		if got := len(CrossStep(tls, Config{})); got != c.alerts {
			t.Errorf("cross-step: step of %v against 1s ± 0.1s: %d alerts, want %d", c.slow, got, c.alerts)
		}
	}
	for _, c := range []struct {
		slow   time.Duration
		alerts int
	}{
		{129900 * time.Microsecond, 0},
		{130100 * time.Microsecond, 9}, // every step after the truncated first
	} {
		tls := make(map[flow.Addr]*timeline.Timeline)
		var groups [][]flow.Addr
		for g := 0; g < 7; g++ {
			rank := flow.Addr(g + 1)
			dp := 90 * time.Millisecond
			switch {
			case g == 6:
				dp = c.slow
			case g%2 == 1:
				dp = 110 * time.Millisecond
			}
			tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), uniformDurs(10, dp))
			groups = append(groups, []flow.Addr{rank})
		}
		alerts := CrossGroup(tls, groups, Config{})
		if len(alerts) != c.alerts {
			t.Errorf("cross-group: group of %v against 100ms ± 10ms: %d alerts, want %d", c.slow, len(alerts), c.alerts)
		}
		for _, a := range alerts {
			if a.Group != 6 {
				t.Errorf("cross-group: alert on group %d, want 6", a.Group)
			}
		}
	}
}

func TestCrossGroupFlagsSlowGroup(t *testing.T) {
	// 8 groups of one rank each; group 5's DP segments are 4x longer.
	tls := make(map[flow.Addr]*timeline.Timeline)
	var groups [][]flow.Addr
	for g := 0; g < 8; g++ {
		rank := flow.Addr(g + 1)
		dp := uniformDurs(10, 50*time.Millisecond)
		if g == 5 {
			dp = uniformDurs(10, 200*time.Millisecond)
		}
		tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), dp)
		groups = append(groups, []flow.Addr{rank})
	}
	alerts := CrossGroup(tls, groups, Config{})
	if len(alerts) == 0 {
		t.Fatal("slow group not flagged")
	}
	for _, a := range alerts {
		if a.Kind != AlertCrossGroup || a.Group != 5 {
			t.Errorf("unexpected alert %+v", a)
		}
	}
}

// TestCrossGroupRailStratification pins the per-rail split: with
// GroupRail set, each rail class is its own comparison population. A rail
// that is structurally slower than the rest — the trailing-rail collective
// segment — stops polluting the pooled baseline: it raises no alert when
// its class is too small to compare, and a genuinely slow group inside the
// majority class is still flagged against its own rail's baseline.
func TestCrossGroupRailStratification(t *testing.T) {
	// 16 groups, the shape of the real deployment: anchors 1..14 are rail
	// 0 (group 5 is the genuine fault at 4x), anchors 101,102 are rail 1
	// and structurally 16x slower — the trailing-rail collective segment.
	tls := make(map[flow.Addr]*timeline.Timeline)
	var groups [][]flow.Addr
	for g := 0; g < 14; g++ {
		rank := flow.Addr(g + 1)
		dp := uniformDurs(10, 50*time.Millisecond)
		if g == 5 {
			dp = uniformDurs(10, 200*time.Millisecond)
		}
		tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), dp)
		groups = append(groups, []flow.Addr{rank})
	}
	for _, rank := range []flow.Addr{101, 102} {
		tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), uniformDurs(10, 800*time.Millisecond))
		groups = append(groups, []flow.Addr{rank})
	}
	rail := func(a flow.Addr) int {
		if a >= 100 {
			return 1
		}
		return 0
	}

	// Pooled baseline (no GroupRail): the slow rail's two groups read as
	// outliers of the combined population — the chronic false alert.
	pooled := CrossGroup(tls, groups, Config{})
	var pooledSlowRail bool
	for _, a := range pooled {
		if rail(a.GroupAnchor) == 1 {
			pooledSlowRail = true
		}
	}
	if !pooledSlowRail {
		t.Fatal("fixture too weak: pooled population does not flag the structurally slow rail")
	}

	stratified := CrossGroup(tls, groups, Config{GroupRail: rail})
	var flagged []flow.Addr
	for _, a := range stratified {
		if a.Kind != AlertCrossGroup {
			t.Fatalf("unexpected alert kind %v", a.Kind)
		}
		flagged = append(flagged, a.GroupAnchor)
	}
	for _, anchor := range flagged {
		if rail(anchor) == 1 {
			t.Errorf("slow-rail group %v flagged despite stratification", anchor)
		}
		if anchor != 6 {
			t.Errorf("flagged anchor %v, want only the genuine fault (anchor 6)", anchor)
		}
	}
	if len(flagged) == 0 {
		t.Error("stratification silenced the genuine fault in the majority rail")
	}
}

func TestCrossGroupNeedsEnoughGroups(t *testing.T) {
	tls := map[flow.Addr]*timeline.Timeline{
		1: makeTimeline(1, uniformDurs(10, time.Second), nil),
		2: makeTimeline(2, uniformDurs(10, time.Second), uniformDurs(10, time.Second)),
	}
	groups := [][]flow.Addr{{1}, {2}}
	if alerts := CrossGroup(tls, groups, Config{}); len(alerts) != 0 {
		t.Error("two groups are below minSamples; no alerts expected")
	}

	// A slow group is judged once its peer population holds minSamples
	// (6) groups, and not below that.
	for _, n := range []int{5, 6} {
		tls := make(map[flow.Addr]*timeline.Timeline)
		var groups [][]flow.Addr
		for g := 0; g < n; g++ {
			rank := flow.Addr(g + 1)
			dp := uniformDurs(10, 50*time.Millisecond)
			if g == 0 {
				dp = uniformDurs(10, 200*time.Millisecond)
			}
			tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), dp)
			groups = append(groups, []flow.Addr{rank})
		}
		alerts := CrossGroup(tls, groups, Config{})
		if flagged := len(alerts) > 0; flagged != (n == 6) {
			t.Errorf("%d groups: %d alerts, want the slow group flagged only at 6 groups", n, len(alerts))
		}
	}
}

func dpRecord(id uint64, at time.Duration, gbps float64, switches ...flow.SwitchID) flow.Record {
	dur := time.Second
	bytes := int64(gbps * 1e9 / 8 * dur.Seconds())
	return flow.Record{
		ID: id, Start: epoch.Add(at), Duration: dur,
		Src: 1, Dst: 2, Bytes: bytes, Switches: switches,
	}
}

func dpTypes() map[flow.Pair]parallel.Type {
	return map[flow.Pair]parallel.Type{flow.MakePair(1, 2): parallel.TypeDP}
}

func TestSwitchSeriesAggregation(t *testing.T) {
	records := []flow.Record{
		dpRecord(1, 0, 100, 3),
		dpRecord(2, 10*time.Second, 120, 3),
		dpRecord(3, 70*time.Second, 80, 3),
		dpRecord(4, 0, 100, 4),
	}
	series := SwitchSeries(records, dpTypes(), Config{Bucket: time.Minute})
	if len(series) != 2 {
		t.Fatalf("series switches = %d, want 2", len(series))
	}
	s3 := series[3]
	if len(s3) != 2 {
		t.Fatalf("switch 3 buckets = %d, want 2", len(s3))
	}
	if s3[0].BWFlows != 2 || s3[0].MeanGbps < 109 || s3[0].MeanGbps > 111 {
		t.Errorf("bucket 0 = %+v, want 2 flows at ≈ 110 Gb/s", s3[0])
	}
	if s3[1].BWFlows != 1 || s3[1].MeanGbps < 79 || s3[1].MeanGbps > 81 {
		t.Errorf("bucket 1 = %+v, want 1 flow at ≈ 80 Gb/s", s3[1])
	}
}

// TestSeriesAccumMergeMatchesSingleShot is the merge-safety contract the
// concurrent analyzer relies on: sharding records across accumulators and
// merging the partials must reproduce the single-shot aggregation exactly.
func TestSeriesAccumMergeMatchesSingleShot(t *testing.T) {
	records := []flow.Record{
		dpRecord(1, 0, 100, 3),
		dpRecord(2, 10*time.Second, 120, 3),
		dpRecord(3, 70*time.Second, 80, 3),
		dpRecord(4, 0, 100, 4),
		dpRecord(5, 30*time.Second, 60, 3, 4),
	}
	cfg := Config{Bucket: time.Minute}
	want := SwitchSeries(records, dpTypes(), cfg)

	merged := NewSeriesAccum(cfg)
	shardA := NewSeriesAccum(cfg)
	shardA.Add(records[:2], dpTypes())
	shardB := NewSeriesAccum(cfg)
	shardB.Add(records[2:], dpTypes())
	merged.Merge(shardA)
	merged.Merge(shardB)
	merged.Merge(nil) // nil shard is a no-op
	got := merged.Series()

	if !reflect.DeepEqual(want, got) {
		t.Errorf("merged series diverges from single-shot:\nwant %+v\ngot  %+v", want, got)
	}
}

func TestSwitchSeriesIgnoresPP(t *testing.T) {
	records := []flow.Record{dpRecord(1, 0, 100, 3)}
	types := map[flow.Pair]parallel.Type{flow.MakePair(1, 2): parallel.TypePP}
	if got := SwitchSeries(records, types, Config{}); len(got) != 0 {
		t.Error("PP flows must not enter switch series")
	}
}

func TestSwitchDiagnoseFlagsDegradedSwitch(t *testing.T) {
	// 8 switches at ~150 Gb/s, switch 7 at 40 Gb/s.
	var records []flow.Record
	id := uint64(0)
	for sw := flow.SwitchID(0); sw < 8; sw++ {
		gbps := 150.0
		if sw == 7 {
			gbps = 40
		}
		for k := 0; k < 5; k++ {
			id++
			records = append(records, dpRecord(id, time.Duration(k)*time.Second, gbps+float64(k), sw))
		}
	}
	series := SwitchSeries(records, dpTypes(), Config{})
	alerts := SwitchDiagnose(series, Config{})
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	if alerts[0].Kind != AlertSwitchBandwidth || alerts[0].Switch != 7 {
		t.Errorf("alert = %+v, want switch-bandwidth on switch 7", alerts[0])
	}
}

func TestSwitchDiagnoseNeedsPopulation(t *testing.T) {
	records := []flow.Record{dpRecord(1, 0, 10, 1), dpRecord(2, 0, 150, 2)}
	series := SwitchSeries(records, dpTypes(), Config{})
	if alerts := SwitchDiagnose(series, Config{}); len(alerts) != 0 {
		t.Error("two switches are below minSamples; no alerts expected")
	}
}

func TestKSigmaOutlierLOO(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 1, 1.05, 0.95, 5}
	if bad, _ := kSigmaOutlierLOO(xs, 6, 3, +1); !bad {
		t.Error("obvious upper outlier not detected")
	}
	if bad, _ := kSigmaOutlierLOO(xs, 0, 3, +1); bad {
		t.Error("normal point flagged")
	}
	low := []float64{100, 101, 99, 100, 102, 98, 20}
	if bad, _ := kSigmaOutlierLOO(low, 6, 3, -1); !bad {
		t.Error("obvious lower outlier not detected")
	}
	// Zero-variance population: any deviation is an outlier.
	flat := []float64{1, 1, 1, 1, 2}
	if bad, _ := kSigmaOutlierLOO(flat, 4, 3, +1); !bad {
		t.Error("outlier against zero-variance population not detected")
	}
}

// TestKSigmaFloorAppliesToTinyVariance is the regression for the
// inconsistent sigma floor: a near-constant population with tiny *nonzero*
// variance used to skip the 1%-of-mean floor (it applied only when
// sd < 1e-12) and alert on sub-percent noise.
func TestKSigmaFloorAppliesToTinyVariance(t *testing.T) {
	xs := []float64{100, 100 + 1e-6, 100 - 1e-6, 100, 100 + 2e-6, 100 - 2e-6, 99.9}
	if bad, _ := kSigmaOutlierLOO(xs, 6, 3, -1); bad {
		t.Error("0.1% deviation against a near-constant baseline flagged (sigma floor not applied)")
	}
	// A real degradation still clears the floored threshold.
	xs[6] = 90
	if bad, _ := kSigmaOutlierLOO(xs, 6, 3, -1); !bad {
		t.Error("10% degradation not flagged with floored sigma")
	}
}

// TestSwitchDiagnoseQuietOnNearConstantBandwidth drives the floor fix
// through SwitchDiagnose: eight switches within ±0.05% of each other must
// not raise bandwidth alerts.
func TestSwitchDiagnoseQuietOnNearConstantBandwidth(t *testing.T) {
	var records []flow.Record
	id := uint64(0)
	for sw := flow.SwitchID(0); sw < 8; sw++ {
		id++
		gbps := 150 + float64(sw)*0.01 // 150.00 .. 150.07
		records = append(records, dpRecord(id, time.Duration(sw)*time.Millisecond, gbps, sw))
	}
	series := SwitchSeries(records, dpTypes(), Config{})
	if alerts := SwitchDiagnose(series, Config{}); len(alerts) != 0 {
		t.Errorf("near-constant switch population raised %d alerts: %+v", len(alerts), alerts)
	}
}

// zeroDurRecord is a degenerate collector export: a flow observed with no
// measurable duration (single packet), carrying bytes but Gbps() == 0.
func zeroDurRecord(id uint64, at time.Duration, switches ...flow.SwitchID) flow.Record {
	return flow.Record{
		ID: id, Start: epoch.Add(at), Duration: 0,
		Src: 1, Dst: 2, Bytes: 1500, Switches: switches,
	}
}

// TestSwitchSeriesExcludesZeroDurationFromMean is the regression for the
// bandwidth-mean skew: zero-duration records must not enter the bandwidth
// mean.
func TestSwitchSeriesExcludesZeroDurationFromMean(t *testing.T) {
	records := []flow.Record{
		dpRecord(1, 0, 100, 3),
		dpRecord(2, time.Second, 120, 3),
		zeroDurRecord(3, 2*time.Second, 3),
		zeroDurRecord(4, 3*time.Second, 3),
	}
	series := SwitchSeries(records, dpTypes(), Config{Bucket: time.Minute})
	pt := series[3][0]
	if pt.BWFlows != 2 {
		t.Errorf("point = %+v, want 2 measurable flows of 4", pt)
	}
	if pt.MeanGbps < 109 || pt.MeanGbps > 111 {
		t.Errorf("MeanGbps = %v, want ≈ 110 (zero-duration rows excluded)", pt.MeanGbps)
	}

	// The frame path must apply the identical rule.
	accum := NewSeriesAccum(Config{Bucket: time.Minute})
	accum.AddView(flow.NewFrame(records).All(), dpTypes())
	if got := accum.Series()[3][0]; got != pt {
		t.Errorf("AddView point = %+v, want %+v (Add/AddView drifted)", got, pt)
	}
}

// TestSwitchDiagnoseHealthyWithZeroDurationRows: a healthy switch whose
// bucket contains some zero-duration rows used to see its mean dragged
// toward zero and get falsely flagged as degraded.
func TestSwitchDiagnoseHealthyWithZeroDurationRows(t *testing.T) {
	var records []flow.Record
	id := uint64(0)
	for sw := flow.SwitchID(0); sw < 8; sw++ {
		for k := 0; k < 4; k++ {
			id++
			records = append(records, dpRecord(id, time.Duration(k)*time.Second, 150+float64(k), sw))
		}
	}
	// Switch 7 additionally carries single-packet exports; its true
	// per-flow bandwidth matches its peers.
	for k := 0; k < 12; k++ {
		id++
		records = append(records, zeroDurRecord(id, time.Duration(k)*time.Second, 7))
	}
	series := SwitchSeries(records, dpTypes(), Config{})
	if alerts := SwitchDiagnose(series, Config{}); len(alerts) != 0 {
		t.Errorf("healthy switch with zero-duration rows flagged: %+v", alerts)
	}
}

// TestSwitchDiagnoseStratifiedByTier is the regression for the tier-blind
// peer comparison: a small low-bandwidth tier (leaves) pooled with a large
// high-bandwidth tier (spines) reads as degraded, even though every leaf
// is healthy. A tier classifier keeps the comparison within tiers.
func TestSwitchDiagnoseStratifiedByTier(t *testing.T) {
	// Switches 0-1 are leaves at ~40 Gb/s per flow; 10-19 are spines at
	// ~150 Gb/s. All healthy for their tier.
	var records []flow.Record
	id := uint64(0)
	add := func(sw flow.SwitchID, gbps float64) {
		id++
		records = append(records, dpRecord(id, time.Duration(id)*time.Millisecond, gbps, sw))
	}
	for sw := flow.SwitchID(0); sw < 2; sw++ {
		add(sw, 40+float64(sw))
	}
	for sw := flow.SwitchID(10); sw < 20; sw++ {
		add(sw, 150+float64(sw-10))
	}
	series := SwitchSeries(records, dpTypes(), Config{})

	pooled := SwitchDiagnose(series, Config{})
	leafFlagged := false
	for _, a := range pooled {
		if a.Switch < 2 {
			leafFlagged = true
		}
	}
	if !leafFlagged {
		t.Fatal("fixture too weak: pooled comparison no longer misflags the leaf tier")
	}

	tier := func(sw flow.SwitchID) int {
		if sw >= 10 {
			return 1
		}
		return 0
	}
	if alerts := SwitchDiagnose(series, Config{SwitchTier: tier}); len(alerts) != 0 {
		t.Errorf("stratified comparison still alerts: %+v", alerts)
	}

	// A genuinely degraded spine is still caught inside its tier.
	add(15, 30) // second flow on spine 15, dragging its mean to ~92
	series = SwitchSeries(records, dpTypes(), Config{})
	var degraded []Alert
	for _, a := range SwitchDiagnose(series, Config{SwitchTier: tier}) {
		if a.Kind == AlertSwitchBandwidth {
			degraded = append(degraded, a)
		}
	}
	if len(degraded) != 1 || degraded[0].Switch != 15 {
		t.Errorf("degraded spine alerts = %+v, want exactly switch 15", degraded)
	}
}

func TestAlertKindString(t *testing.T) {
	kinds := map[AlertKind]string{
		AlertCrossStep:       "cross-step",
		AlertCrossGroup:      "cross-group",
		AlertSwitchFlowCount: "switch-flow-count",
		AlertSwitchBandwidth: "switch-bandwidth",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
	if AlertKind(99).String() == "" {
		t.Error("unknown kind should render")
	}
}

func BenchmarkSwitchSeries(b *testing.B) {
	var records []flow.Record
	for i := 0; i < 50_000; i++ {
		records = append(records, dpRecord(uint64(i), time.Duration(i)*time.Millisecond, 100,
			flow.SwitchID(i%24), flow.SwitchID(24+i%8), flow.SwitchID((i+7)%24)))
	}
	types := dpTypes()
	v := flow.NewFrame(records).All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewSeriesAccum(Config{})
		a.AddView(v, types)
		a.Series()
	}
}

// TestCrossStepMinPersist pins the persistence bar: one anomalous step is
// the signature of a lost boundary record (two steps merged into one
// doubled duration), so MinPersist 2 keeps it off the alert surface,
// while a rank that is slow twice in the window still fires — and every
// one of its anomalous steps is reported once it clears the bar.
func TestCrossStepMinPersist(t *testing.T) {
	spike := uniformDurs(12, time.Second)
	spike[7] = 3 * time.Second
	tls := map[flow.Addr]*timeline.Timeline{1: makeTimeline(1, spike, nil)}
	if alerts := CrossStep(tls, Config{MinPersist: 2}); len(alerts) != 0 {
		t.Errorf("isolated spike survived MinPersist 2: %+v", alerts)
	}

	double := uniformDurs(24, time.Second)
	double[10] = 3 * time.Second
	double[15] = 3 * time.Second
	tls = map[flow.Addr]*timeline.Timeline{1: makeTimeline(1, double, nil)}
	alerts := CrossStep(tls, Config{MinPersist: 2})
	if len(alerts) != 2 {
		t.Fatalf("persistent slowdown: alerts = %d, want 2", len(alerts))
	}
	for _, a := range alerts {
		if a.Step != 10 && a.Step != 15 {
			t.Errorf("unexpected step %d in %+v", a.Step, a)
		}
	}
}

// TestCrossGroupMedianIgnoresSingleMemberArtifact pins the median
// aggregation: with four ranks per group, one member's doubled DP
// duration (a merged step from record loss) drags the group mean far
// enough to fire, but leaves the median untouched — while a slowdown
// across the whole group still moves the median and fires.
func TestCrossGroupMedianIgnoresSingleMemberArtifact(t *testing.T) {
	build := func(slowRanks map[flow.Addr]bool) (map[flow.Addr]*timeline.Timeline, [][]flow.Addr) {
		tls := make(map[flow.Addr]*timeline.Timeline)
		var groups [][]flow.Addr
		for g := 0; g < 8; g++ {
			var members []flow.Addr
			for m := 0; m < 4; m++ {
				rank := flow.Addr(g*4 + m + 1)
				dp := uniformDurs(10, 50*time.Millisecond)
				if slowRanks[rank] {
					dp = uniformDurs(10, 400*time.Millisecond)
				}
				tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), dp)
				members = append(members, rank)
			}
			groups = append(groups, members)
		}
		return tls, groups
	}

	// One artifact member in group 5 (ranks 21-24): mean fires, median is
	// quiet.
	tls, groups := build(map[flow.Addr]bool{21: true})
	if alerts := CrossGroup(tls, groups, Config{}); len(alerts) == 0 {
		t.Error("mean aggregation should fire on a single-member artifact (the hazard GroupMedian exists for)")
	}
	if alerts := CrossGroup(tls, groups, Config{GroupMedian: true}); len(alerts) != 0 {
		t.Errorf("median aggregation fired on a single-member artifact: %+v", alerts)
	}

	// The whole of group 5 slow: median fires too.
	tls, groups = build(map[flow.Addr]bool{21: true, 22: true, 23: true, 24: true})
	alerts := CrossGroup(tls, groups, Config{GroupMedian: true})
	if len(alerts) == 0 {
		t.Fatal("median aggregation missed a genuinely slow group")
	}
	for _, a := range alerts {
		if a.Group != 5 {
			t.Errorf("unexpected alert %+v, want group 5", a)
		}
	}
}

// TestCrossGroupMinPersist pins the group-level persistence bar: a group
// anomalous in a single step stays quiet at MinPersist 2, a group slow in
// two steps keeps both its alerts.
func TestCrossGroupMinPersist(t *testing.T) {
	build := func(slowSteps ...int) (map[flow.Addr]*timeline.Timeline, [][]flow.Addr) {
		tls := make(map[flow.Addr]*timeline.Timeline)
		var groups [][]flow.Addr
		for g := 0; g < 8; g++ {
			rank := flow.Addr(g + 1)
			dp := uniformDurs(10, 50*time.Millisecond)
			if g == 5 {
				for _, s := range slowSteps {
					dp[s] = 400 * time.Millisecond
				}
			}
			tls[rank] = makeTimeline(rank, uniformDurs(10, time.Second), dp)
			groups = append(groups, []flow.Addr{rank})
		}
		return tls, groups
	}

	tls, groups := build(4)
	if alerts := CrossGroup(tls, groups, Config{MinPersist: 2}); len(alerts) != 0 {
		t.Errorf("single-step group anomaly survived MinPersist 2: %+v", alerts)
	}
	tls, groups = build(4, 7)
	alerts := CrossGroup(tls, groups, Config{MinPersist: 2})
	if len(alerts) != 2 {
		t.Fatalf("two-step group anomaly: alerts = %d, want 2", len(alerts))
	}
	for _, a := range alerts {
		if a.Group != 5 {
			t.Errorf("unexpected alert %+v, want group 5", a)
		}
	}
}
