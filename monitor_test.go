package llmprism

import (
	"context"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

func monitorFixture(t *testing.T) (*Monitor, *topology.Topology) {
	t.Helper()
	topo, err := topology.New(TopologySpec{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMonitor(New(), topo, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return m, topo
}

func monitorRecord(id uint64, at time.Duration, topo *topology.Topology) FlowRecord {
	epoch := time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)
	return FlowRecord{
		ID:    id,
		Start: epoch.Add(at),
		Src:   topo.AddrOf(0, 0),
		Dst:   topo.AddrOf(1, 0),
		Bytes: 1000,
	}
}

func TestNewMonitorValidation(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitor(nil, topo, time.Minute); err == nil {
		t.Error("nil analyzer accepted")
	}
	if _, err := NewMonitor(New(), nil, time.Minute); err == nil {
		t.Error("nil mapper accepted")
	}
	m, err := NewMonitor(New(), topo, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Window() != time.Minute {
		t.Errorf("default window = %v, want 1m", m.Window())
	}
}

func TestMonitorWindowing(t *testing.T) {
	m, topo := monitorFixture(t)
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// First batch covers 0..8s: no window closes.
	var batch []FlowRecord
	for i := 0; i < 8; i++ {
		batch = append(batch, monitorRecord(uint64(i+1), time.Duration(i)*time.Second, topo))
	}
	reports, err := s.Push(batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 0 {
		t.Fatalf("premature reports: %d", len(reports))
	}
	if s.Pending() != 8 {
		t.Fatalf("Pending = %d, want 8", s.Pending())
	}

	// A record at 25s closes windows [0,10) and [10,20). Window [10,20)
	// holds no records but is still reported — with bounds and no jobs —
	// so report sequence numbers line up with wall-clock windows. Close
	// analyzes the remainder, [20,30). (A closed window's report is
	// released once its analysis finishes, by this Push or a later call.)
	reports, err = s.Push([]FlowRecord{monitorRecord(100, 25*time.Second, topo)})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	tail, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, tail...)
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3 (empty window reported)", len(reports))
	}
	epoch := monitorRecord(0, 0, topo).Start
	for i, r := range reports {
		want := WindowInfo{
			Seq:   i,
			Start: epoch.Add(time.Duration(i) * 10 * time.Second),
			End:   epoch.Add(time.Duration(i+1) * 10 * time.Second),
		}
		if r.Window != want {
			t.Errorf("report %d window = %+v, want %+v", i, r.Window, want)
		}
	}
	if len(reports[1].Jobs) != 0 || reports[1].Alerts() != nil {
		t.Error("empty window report should carry no jobs or alerts")
	}
	if len(reports[0].Jobs) != 1 || len(reports[2].Jobs) != 1 {
		t.Error("windows holding records should each report their job")
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after Close = %d", s.Pending())
	}
}

func TestMonitorEmptyFeed(t *testing.T) {
	m, _ := monitorFixture(t)
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reports, err := s.Push(nil); err != nil || reports != nil {
		t.Error("empty push should be a no-op")
	}
	if reports, err := s.PushFrame(nil); err != nil || reports != nil {
		t.Error("nil frame push should be a no-op")
	}
	if reports, err := s.Close(); err != nil || reports != nil {
		t.Error("closing a session that saw no records should report nothing")
	}
}

func TestMonitorOptionValidation(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewMonitor(New(), topo, 10*time.Second, WithHop(11*time.Second)); err == nil {
		t.Error("hop exceeding window accepted")
	}
	if _, err := NewMonitor(New(), topo, 10*time.Second, WithLateness(-time.Second)); err == nil {
		t.Error("negative lateness accepted")
	}
	m, err := NewMonitor(New(), topo, 10*time.Second,
		WithHop(5*time.Second), WithLateness(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if m.Hop() != 5*time.Second || m.Lateness() != 2*time.Second {
		t.Errorf("hop/lateness = %v/%v, want 5s/2s", m.Hop(), m.Lateness())
	}
}

func TestMonitorOutOfOrderTolerated(t *testing.T) {
	m, topo := monitorFixture(t)
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Out-of-order arrivals within one batch must not break windowing:
	// windows close only after the whole batch has landed.
	batch := []FlowRecord{
		monitorRecord(2, 3*time.Second, topo),
		monitorRecord(1, 1*time.Second, topo),
		monitorRecord(3, 12*time.Second, topo),
	}
	reports, err := s.Push(batch)
	if err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 1 || s.Late() != 0 {
		t.Errorf("Pending/Late = %d/%d, want 1/0", s.Pending(), s.Late())
	}
	tail, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	reports = append(reports, tail...)
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2", len(reports))
	}
	if n := len(reports[0].Jobs[0].Records); n != 2 {
		t.Errorf("window 0 holds %d records, want 2", n)
	}
}

func TestFlowRecordAliasUsable(t *testing.T) {
	// The public aliases must interoperate with internal types.
	var r FlowRecord
	r.Src, r.Dst = 1, 2
	if r.Pair() != flow.MakePair(1, 2) {
		t.Error("alias type lost methods")
	}
}
