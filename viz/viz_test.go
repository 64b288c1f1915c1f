package viz

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

var epoch = time.Date(2026, 5, 1, 0, 0, 0, 0, time.UTC)

func vizTopo(t *testing.T) *topology.Topology {
	t.Helper()
	topo, err := topology.New(topology.Spec{Nodes: 4, GPUsPerNode: 4, NodesPerLeaf: 2, Spines: 2})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestClusterGrid(t *testing.T) {
	topo := vizTopo(t)
	clusters := [][]flow.Addr{
		{topo.AddrOf(0, 0), topo.AddrOf(1, 0)},
		{topo.AddrOf(2, 3), topo.AddrOf(3, 3)},
	}
	grid := ClusterGrid(topo, clusters)
	lines := strings.Split(strings.TrimRight(grid, "\n"), "\n")
	if len(lines) != 5 { // header + 4 nodes
		t.Fatalf("grid has %d lines, want 5:\n%s", len(lines), grid)
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[3], "B") {
		t.Errorf("cluster glyphs missing:\n%s", grid)
	}
	if !strings.Contains(grid, ".") {
		t.Errorf("idle GPUs should render as dots:\n%s", grid)
	}
}

func TestJobClusterGrid(t *testing.T) {
	topo := vizTopo(t)
	jobs := []jobrec.Cluster{{Endpoints: []flow.Addr{topo.AddrOf(0, 0), topo.AddrOf(1, 1)}}}
	grid := JobClusterGrid(topo, jobs)
	if !strings.Contains(grid, "A") {
		t.Errorf("job grid missing glyph:\n%s", grid)
	}
}

func TestGlyphOverflow(t *testing.T) {
	if glyph(0) != 'A' || glyph(61) != '9' || glyph(62) != '#' || glyph(1000) != '#' {
		t.Error("glyph mapping wrong")
	}
}

// testLane is one rank's swimlane input: a PP flow to rank 9 at 1-2 s, a
// DP flow from rank 10 at 8-9 s, and one step ending at 9 s.
func testLane(rank flow.Addr) ([]flow.Record, map[flow.Pair]parallel.Type, map[flow.Addr]*timeline.Timeline) {
	records := []flow.Record{
		{ID: 1, Start: epoch.Add(1 * time.Second), Duration: time.Second, Src: rank, Dst: 9},
		{ID: 2, Start: epoch.Add(8 * time.Second), Duration: time.Second, Src: 10, Dst: rank},
	}
	types := map[flow.Pair]parallel.Type{
		flow.MakePair(rank, 9):  parallel.TypePP,
		flow.MakePair(10, rank): parallel.TypeDP,
	}
	tl := &timeline.Timeline{Rank: rank, Steps: []timeline.Step{{
		Index: 0, Start: epoch, End: epoch.Add(9 * time.Second),
		DPStart: epoch.Add(8 * time.Second), DPEnd: epoch.Add(9 * time.Second),
	}}}
	return records, types, map[flow.Addr]*timeline.Timeline{rank: tl}
}

func TestTimelineSwimlanes(t *testing.T) {
	records, types, tls := testLane(1)
	out := TimelineSwimlanes(records, types, tls, []flow.Addr{1}, epoch, epoch.Add(10*time.Second), 50)
	if !strings.Contains(out, "p") || !strings.Contains(out, "D") {
		t.Errorf("swimlane missing event paint:\n%s", out)
	}
	if !strings.Contains(out, "|") {
		t.Errorf("swimlane missing step boundary:\n%s", out)
	}
	if !strings.Contains(out, "10.0.0.1") {
		t.Errorf("swimlane missing rank label:\n%s", out)
	}
	// Unknown ranks are skipped, zero span yields empty output.
	if got := TimelineSwimlanes(records, types, tls, []flow.Addr{42}, epoch, epoch.Add(time.Second), 50); strings.Count(got, "\n") != 1 {
		t.Errorf("unknown rank should yield header only:\n%q", got)
	}
	if got := TimelineSwimlanes(records, types, tls, []flow.Addr{1}, epoch, epoch, 50); got != "" {
		t.Errorf("zero span should yield empty string, got %q", got)
	}
}

// TestTimelineSwimlanesSubCellSpan renders 10 ns inside the PP flow on 50
// cells, which used to divide by a zero cell width.
func TestTimelineSwimlanesSubCellSpan(t *testing.T) {
	records, types, tls := testLane(1)
	from := epoch.Add(time.Second)
	out := TimelineSwimlanes(records, types, tls, []flow.Addr{1}, from, from.Add(10*time.Nanosecond), 50)
	if !strings.HasSuffix(out, " "+strings.Repeat("p", 50)+"\n") {
		t.Errorf("want one lane of PP paint:\n%s", out)
	}
}

// TestTimelineSwimlanesOrderIndependent renders overlapping PP and DP flows
// with tied starts on three ranks, and requires every shuffle of the
// records to render the same bytes as the start-ordered slice.
func TestTimelineSwimlanesOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var records []flow.Record
	types := make(map[flow.Pair]parallel.Type)
	for i := 0; i < 60; i++ {
		src, dst := flow.Addr(rng.Intn(3)), flow.Addr(rng.Intn(4))
		records = append(records, flow.Record{
			ID:       uint64(i + 1),
			Start:    epoch.Add(time.Duration(rng.Intn(20)) * 500 * time.Millisecond),
			Duration: time.Duration(rng.Intn(4)) * 300 * time.Millisecond,
			Src:      src, Dst: dst,
		})
		if rng.Intn(2) == 0 {
			types[flow.MakePair(src, dst)] = parallel.TypeDP
		} else {
			types[flow.MakePair(src, dst)] = parallel.TypePP
		}
	}
	flow.SortByStart(records)
	tls := make(map[flow.Addr]*timeline.Timeline)
	for r := flow.Addr(0); r < 3; r++ {
		tls[r] = &timeline.Timeline{Rank: r, Steps: []timeline.Step{
			{Index: 0, Start: epoch, End: epoch.Add(3 * time.Second)},
			{Index: 1, Start: epoch.Add(3 * time.Second), End: epoch.Add(7 * time.Second)},
		}}
	}
	ranks := []flow.Addr{0, 1, 2}
	want := TimelineSwimlanes(records, types, tls, ranks, epoch, epoch.Add(10*time.Second), 40)
	if !strings.Contains(want, "D") || !strings.Contains(want, "p") {
		t.Fatalf("trace paints no PP or no DP:\n%s", want)
	}
	for trial := 0; trial < 50; trial++ {
		shuffled := slices.Clone(records)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := TimelineSwimlanes(shuffled, types, tls, ranks, epoch, epoch.Add(10*time.Second), 40); got != want {
			t.Fatalf("shuffle %d renders differently:\n got\n%s want\n%s", trial, got, want)
		}
	}
}

func TestBandwidthSeries(t *testing.T) {
	series := map[flow.SwitchID][]diagnose.SwitchPoint{
		1: {{Bucket: epoch, BWFlows: 10, MeanGbps: 150}, {Bucket: epoch.Add(time.Minute), BWFlows: 12, MeanGbps: 40}},
		2: {{Bucket: epoch, BWFlows: 8, MeanGbps: 145}},
	}
	out := BandwidthSeries(series, nil)
	if !strings.Contains(out, "150.0") || !strings.Contains(out, "40.0") {
		t.Errorf("bandwidth values missing:\n%s", out)
	}
	if !strings.Contains(out, "sw-1") || !strings.Contains(out, "sw-2") {
		t.Errorf("switch labels missing:\n%s", out)
	}
	// Missing buckets render as '-'.
	if !strings.Contains(out, "-") {
		t.Errorf("missing bucket placeholder absent:\n%s", out)
	}
	named := BandwidthSeries(series, func(sw flow.SwitchID) string { return "leaf-x" })
	if !strings.Contains(named, "leaf-x") {
		t.Error("name function ignored")
	}
	if got := BandwidthSeries(nil, nil); !strings.Contains(got, "no DP traffic") {
		t.Errorf("empty series message wrong: %q", got)
	}
}

func TestAlertList(t *testing.T) {
	alerts := []diagnose.Alert{
		{Kind: diagnose.AlertCrossGroup, Time: epoch.Add(time.Minute), Detail: "second"},
		{Kind: diagnose.AlertCrossStep, Time: epoch, Detail: "first"},
	}
	out := AlertList(alerts)
	if strings.Index(out, "first") > strings.Index(out, "second") {
		t.Errorf("alerts not sorted by time:\n%s", out)
	}
	if !strings.Contains(out, "cross-step") || !strings.Contains(out, "cross-group") {
		t.Errorf("alert kinds missing:\n%s", out)
	}
	if got := AlertList(nil); !strings.Contains(got, "no alerts") {
		t.Errorf("empty alert list message wrong: %q", got)
	}
}

// TestAlertListKeepsReportOrderOfTies: alerts sharing a time keep the order
// the report gave them. Above twelve alerts an unstable sort scrambles such
// ties, so the input is one job alert and sixteen switch alerts, four per
// bucket, in the report's ascending switch order.
func TestAlertListKeepsReportOrderOfTies(t *testing.T) {
	alerts := []diagnose.Alert{{
		Kind: diagnose.AlertCrossStep, Time: epoch.Add(7 * time.Second), Detail: "job",
	}}
	for i := 0; i < 16; i++ {
		alerts = append(alerts, diagnose.Alert{
			Kind:   diagnose.AlertSwitchBandwidth,
			Switch: flow.SwitchID(i),
			Time:   epoch.Add(time.Duration(i/4) * 5 * time.Second),
			Detail: fmt.Sprintf("sw-%d", i),
		})
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSuffix(AlertList(alerts), "\n"), "\n") {
		fields := strings.Fields(line)
		got = append(got, fields[len(fields)-1])
	}
	want := []string{"sw-0", "sw-1", "sw-2", "sw-3", "sw-4", "sw-5", "sw-6", "sw-7", "job",
		"sw-8", "sw-9", "sw-10", "sw-11", "sw-12", "sw-13", "sw-14", "sw-15"}
	if !slices.Equal(got, want) {
		t.Errorf("alert order = %v, want %v", got, want)
	}
}
