package llmprism

import (
	"context"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/stream"
	"github.com/llmprism/llmprism/testbed"
)

// feedOracle is the serial tumbling-window monitor loop, the reference the
// pipelined session is compared against (ROADMAP, "Reference oracles
// stay"): records buffer in (start, id) order, windows are cut on a grid
// anchored at the first record, each completed window's record slice goes
// through Analyzer.AnalyzeContext, and reports are annotated in window
// order. It borrows the wrapped Monitor's analyzer, mapper, geometry and
// continuity trackers and shares nothing with the streaming engine but two
// pieces of grid arithmetic (stream.FloorDiv, stream.DefaultMaxEmptyRun),
// so the equivalence tests compare two independent implementations.
type feedOracle struct {
	m    *Monitor
	buf  []FlowRecord // sorted by (start, id)
	next time.Time    // start of the next grid window; zero until anchored
	seq  int
}

// feed ingests one batch and analyzes every window the newest record
// closes, oldest first — empty windows included.
func (o *feedOracle) feed(records []FlowRecord) ([]*Report, error) {
	if len(records) == 0 {
		return nil, nil
	}
	o.buf = append(o.buf, records...)
	// Stable: exact (start, id) ties keep arrival order, as they do in the
	// engine's per-window builders.
	sort.SliceStable(o.buf, func(i, j int) bool {
		a, b := &o.buf[i], &o.buf[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.ID < b.ID
	})
	if o.next.IsZero() {
		// UTC-normalized, like the engine's grid, so stamped bounds are
		// identical whatever location the input records carry.
		o.next = o.buf[0].Start.UTC()
	}
	var reports []*Report
	closes := o.m.cfg.window + o.m.cfg.lateness
	newest := o.buf[len(o.buf)-1].Start
	for newest.Sub(o.next) >= closes {
		o.skipEmptyRun(newest)
		if newest.Sub(o.next) < closes {
			break
		}
		r, err := o.closeWindow()
		if err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// flush analyzes whatever remains buffered, one report per grid window —
// with a lateness bound the remainder can span several.
func (o *feedOracle) flush() ([]*Report, error) {
	var reports []*Report
	for len(o.buf) > 0 {
		o.skipEmptyRun(time.Time{})
		r, err := o.closeWindow()
		if err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// closeWindow analyzes and consumes the buffered records of the next grid
// window [next, next+window) and advances the grid.
func (o *feedOracle) closeWindow() (*Report, error) {
	end := o.next.Add(o.m.cfg.window)
	cut := sort.Search(len(o.buf), func(i int) bool { return !o.buf[i].Start.Before(end) })
	report := &Report{}
	if cut > 0 {
		var err error
		report, err = o.m.analyzer.AnalyzeContext(context.Background(), o.buf[:cut], o.m.mapper)
		if err != nil {
			return nil, err
		}
	}
	report.Window = WindowInfo{Seq: o.seq, Start: o.next, End: end}
	o.seq++
	o.m.annotate(report, cut)
	o.buf = o.buf[cut:]
	o.next = end
	return report, nil
}

// skipEmptyRun jumps the grid over a run of empty windows longer than
// stream.DefaultMaxEmptyRun slots — the mirror of the engine's guard
// against a corrupt far-future timestamp. Like the engine's push-time
// jump, the target is capped at the first window the watermark (newest −
// lateness) cannot close yet; flush passes the zero time to jump all the
// way to the earliest buffered record's window, like the engine's Flush.
// Shorter runs still emit their empty reports.
func (o *feedOracle) skipEmptyRun(newest time.Time) {
	if len(o.buf) == 0 || o.buf[0].Start.Before(o.next) {
		return
	}
	w := int64(o.m.cfg.window)
	slots := stream.FloorDiv(int64(o.buf[0].Start.Sub(o.next)), w)
	if !newest.IsZero() {
		closable := stream.FloorDiv(int64(newest.Sub(o.next)-o.m.cfg.lateness)-w, w) + 1
		if closable < slots {
			slots = closable
		}
	}
	if slots > stream.DefaultMaxEmptyRun {
		o.next = o.next.Add(time.Duration(slots) * o.m.cfg.window)
	}
}

// feedAll runs records through a feedOracle over m in fixed-size batches,
// flushes, and returns every report in window order — pushAll's
// counterpart. m must be fresh and tumbling.
func feedAll(t *testing.T, m *Monitor, records []FlowRecord, batch int) []*Report {
	t.Helper()
	if m.cfg.hop != m.cfg.window {
		t.Fatalf("feed oracle needs tumbling windows (hop %v != window %v)", m.cfg.hop, m.cfg.window)
	}
	o := &feedOracle{m: m}
	var reports []*Report
	for lo := 0; lo < len(records); lo += batch {
		got, err := o.feed(records[lo:min(lo+batch, len(records))])
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, got...)
	}
	tail, err := o.flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(reports, tail...)
}

// TestMonitorSuppressionStreamMatchesFeed extends the stream/feed-oracle
// equivalence gate to the suppression path, where localization runs in
// annotate instead of inside the analysis: reports — fused suspects,
// incidents, suppressed alert surface — must stay bit-identical across
// ingestion paths, worker counts and pipeline depths.
func TestMonitorSuppressionStreamMatchesFeed(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed; skipped in -short")
	}
	spec := TopologySpec{Nodes: 24, NodesPerLeaf: 3, Spines: 4}
	jobs, err := testbed.PlanJobs(spec, []testbed.JobPlan{
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
		{Nodes: 8, TargetStep: 2 * time.Second},
	}, 13)
	if err != nil {
		t.Fatal(err)
	}
	topo0, err := NewTopology(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "suppression-equivalence", Topo: spec, Jobs: jobs,
		Horizon: 60 * time.Second,
		Faults: testbed.FaultSchedule{Faults: []testbed.Fault{{
			Kind: testbed.FaultSwitchDegrade, Switch: topo0.SpineSwitch(1),
			At: 15 * time.Second, Until: 60 * time.Second, Factor: 0.15,
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	records, topo := res.Records, res.Topo
	const window = 15 * time.Second
	newM := func(workers int, opts ...MonitorOption) *Monitor {
		m, err := NewMonitor(New(WithWorkers(workers), WithSwitchBucket(5*time.Second), WithLocalization()), topo, window,
			append([]MonitorOption{WithChronicSuppression()}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}

	want := feedAll(t, newM(1), records, len(records))
	if len(want) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(want))
	}
	var fused int
	for _, r := range want {
		fused += len(r.FusedSuspects)
	}
	if fused == 0 {
		t.Fatal("suppression run never produced fused suspects; fixture too quiet")
	}
	if got := feedAll(t, newM(8), records, len(records)); !reflect.DeepEqual(want, got) {
		t.Fatal("concurrent feed oracle diverges from sequential under suppression")
	}
	for _, depth := range []int{1, 3} {
		got := streamAll(t, newM(8, WithPipelineDepth(depth)), records, 500)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("depth=%d: stream reports diverge from the feed oracle under suppression", depth)
		}
	}
	// Arrival order within the allowed lateness must not matter either:
	// chronic classification and fused scores live on the serialized
	// in-order report path, so a permuted stream stays bit-identical.
	for seed := int64(0); seed < 2; seed++ {
		m := newM(8, WithPipelineDepth(3), WithLateness(2*time.Second))
		s, err := m.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got := pushAll(t, s, permuteWithinLateness(records, time.Second, seed), 500)
		if s.Late() != 0 {
			t.Fatalf("seed %d: late = %d, want 0 (permutation stayed within lateness)", seed, s.Late())
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: permuted arrival diverges from the feed oracle under suppression", seed)
		}
	}
}
