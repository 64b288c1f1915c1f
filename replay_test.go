package llmprism

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/topology"
)

// replayArchive opens an archive image and pushes every archived window's
// records back through a fresh monitor session on the recorded grid,
// returning the reports — the library-level equivalent of `llmprism
// replay`.
func replayArchive(t *testing.T, data []byte, topo *topology.Topology, opts ...Option) []*Report {
	t.Helper()
	ar, err := archive.OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	meta := ar.Meta()
	mopts := []MonitorOption{
		WithLateness(meta.Lateness),
		WithPipelineDepth(3),
	}
	if !ar.Anchor().IsZero() {
		mopts = append(mopts, WithAnchor(ar.Anchor()))
	}
	m, err := NewMonitor(New(opts...), topo, meta.Width, mopts...)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var reports []*Report
	if err := ar.Replay(func(_ archive.Segment, f *FlowFrame) error {
		got, err := s.Push(f.RecordsByStart())
		reports = append(reports, got...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tail, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	return append(reports, tail...)
}

// TestArchiveReplayReproducesReports is the archive acceptance gate: a
// streaming session recorded through WithArchive, reopened and replayed
// through Monitor.Stream, must reproduce the recorded reports bit for bit
// — window bounds, job ids, float-typed series, incidents, localization
// suspects — including when the live session ingested records out of
// order within the lateness bound. Run with -race to cover the pipelined
// archive handoff.
func TestArchiveReplayReproducesReports(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window   = 5 * time.Second
		lateness = 2 * time.Second
	)

	record := func(recs []FlowRecord) ([]*Report, []byte) {
		var buf bytes.Buffer
		m, err := NewMonitor(New(WithWorkers(4), WithLocalization()), topo, window,
			WithLateness(lateness), WithPipelineDepth(3), WithArchive(&buf))
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		reports := pushAll(t, s, recs, 300)
		return reports, buf.Bytes()
	}

	want, data := record(records)
	if len(want) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(want))
	}
	got := replayArchive(t, data, topo, WithWorkers(4), WithLocalization())
	if !reflect.DeepEqual(want, got) {
		t.Fatal("replayed reports diverge from recorded session")
	}
	// Worker count must not matter on replay either.
	if got1 := replayArchive(t, data, topo, WithWorkers(1), WithLocalization()); !reflect.DeepEqual(want, got1) {
		t.Fatal("replay with 1 worker diverges from recorded session")
	}

	// A live session that saw the same records permuted within the
	// lateness bound archives the same windows; its replay must reproduce
	// its reports too.
	permuted, permData := record(permuteWithinLateness(records, lateness/2, 3))
	if !reflect.DeepEqual(want, permuted) {
		t.Fatal("permuted live session diverges (pre-existing invariant)")
	}
	if got := replayArchive(t, permData, topo, WithWorkers(4), WithLocalization()); !reflect.DeepEqual(permuted, got) {
		t.Fatal("replay of permuted-session archive diverges")
	}
}

// TestArchiveReplayPreAnchorStraggler pins the recorded grid anchor: when
// the live session's grid was anchored by a record that was not the
// globally earliest (a within-lateness straggler opened an earlier
// window), replay must restore the original grid origin — re-anchoring at
// the earliest replayed record would shift every window's bounds.
func TestArchiveReplayPreAnchorStraggler(t *testing.T) {
	topo, err := topology.New(TopologySpec{Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	m, err := NewMonitor(New(), topo, 10*time.Second,
		WithLateness(6*time.Second), WithArchive(&buf))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The 10s record anchors the grid; the 5s straggler then opens the
	// earlier window [0s, 10s).
	if _, err := s.Push([]FlowRecord{monitorRecord(1, 10*time.Second, topo)}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push([]FlowRecord{monitorRecord(2, 5*time.Second, topo)}); err != nil {
		t.Fatal(err)
	}
	want, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 2 {
		t.Fatalf("recorded windows = %d, want 2", len(want))
	}
	got := replayArchive(t, buf.Bytes(), topo)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replay diverges:\nwant window 0 %+v\n got window 0 %+v", want[0].Window, got[0].Window)
	}
}

// TestArchiveSinkFailurePropagates: a failing archive sink must kill the
// session with an error, not record a silently incomplete trace.
func TestArchiveSinkFailurePropagates(t *testing.T) {
	records, topo := concurrencyTrace(t)
	m, err := NewMonitor(New(), topo, 5*time.Second, WithArchive(limitedWriter{limit: 64}))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err == nil {
		_, err = s.Push(records)
		if err == nil {
			_, err = s.Close()
		}
	}
	if err == nil {
		t.Fatal("failing archive sink did not surface an error")
	}
}

type limitedWriter struct{ limit int }

func (lw limitedWriter) Write(p []byte) (int, error) {
	if len(p) > lw.limit {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}
