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

// bulkReplay replays an archive through MonitorStream.PushFrame — the bulk
// columnar path — while re-archiving to rearchived, so both the reports and
// the emitted frame bytes can be held against the per-record reference.
func bulkReplay(t *testing.T, data []byte, topo *topology.Topology, depth int, rearchived *bytes.Buffer, opts ...Option) []*Report {
	t.Helper()
	ar, err := archive.OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	meta := ar.Meta()
	mopts := []MonitorOption{
		WithLateness(meta.Lateness),
		WithPipelineDepth(depth),
		WithChronicSuppression(IncidentConfig{}),
	}
	if !ar.Anchor().IsZero() {
		mopts = append(mopts, WithAnchor(ar.Anchor()))
	}
	if rearchived != nil {
		mopts = append(mopts, WithArchive(rearchived))
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
		got, err := s.PushFrame(f)
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

// TestPushFrameReplayEquivalence is the end-to-end bulk-ingest gate: an
// archive replayed through PushFrame must reproduce, bit for bit, what
// replaying its materialized records through Push produces (each window's
// frame rebuilt from []FlowRecord, so the decoded path table and row order
// are never reused) — reports (incidents, suspects and fused
// suspects included), late counts, and the re-archived frame bytes — across
// pipeline depths, localization shard counts, and a live session that
// ingested its records permuted within the lateness bound. Run with -race.
func TestPushFrameReplayEquivalence(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window   = 5 * time.Second
		lateness = 2 * time.Second
	)

	record := func(recs []FlowRecord) ([]*Report, []byte) {
		var buf bytes.Buffer
		m, err := NewMonitor(New(WithWorkers(4), WithLocalization(LocalizationConfig{})), topo, window,
			WithLateness(lateness), WithPipelineDepth(3), WithArchive(&buf),
			WithChronicSuppression(IncidentConfig{}))
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
	live, data := record(records)
	if len(live) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(live))
	}

	// Per-record reference replay, re-archiving as it goes.
	ar, err := archive.OpenReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	var refArchive bytes.Buffer
	refMon, err := NewMonitor(New(WithWorkers(4), WithLocalization(LocalizationConfig{})), topo, ar.Meta().Width,
		WithLateness(ar.Meta().Lateness), WithPipelineDepth(3), WithAnchor(ar.Anchor()),
		WithArchive(&refArchive), WithChronicSuppression(IncidentConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	refStream, err := refMon.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var want []*Report
	if err := ar.Replay(func(_ archive.Segment, f *FlowFrame) error {
		got, err := refStream.Push(f.RecordsByStart())
		want = append(want, got...)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	tail, err := refStream.Close()
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, tail...)
	if !reflect.DeepEqual(live, want) {
		t.Fatal("per-record replay diverges from live session (pre-existing invariant)")
	}

	for _, depth := range []int{1, 3} {
		for _, shards := range []int{0, 1, 4} {
			var bulkArchive bytes.Buffer
			got := bulkReplay(t, data, topo, depth, &bulkArchive,
				WithWorkers(4), WithLocalization(LocalizationConfig{Shards: shards}))
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("depth=%d shards=%d: PushFrame replay reports diverge from per-record replay", depth, shards)
			}
			if !bytes.Equal(refArchive.Bytes(), bulkArchive.Bytes()) {
				t.Fatalf("depth=%d shards=%d: PushFrame replay archived different frame bytes", depth, shards)
			}
		}
	}

	// Late accounting must match too: replay with zero lateness so archived
	// rows that straddle window bounds arrive late for their windows.
	zeroLateness := func(push bool, out *bytes.Buffer) ([]*Report, uint64) {
		ar2, err := archive.OpenReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMonitor(New(), topo, ar2.Meta().Width, WithAnchor(ar2.Anchor()), WithArchive(out))
		if err != nil {
			t.Fatal(err)
		}
		s, err := m.Stream(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var reports []*Report
		if err := ar2.Replay(func(_ archive.Segment, f *FlowFrame) error {
			var got []*Report
			var err error
			if push {
				got, err = s.Push(f.RecordsByStart())
			} else {
				got, err = s.PushFrame(f)
			}
			reports = append(reports, got...)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		tail, err := s.Close()
		if err != nil {
			t.Fatal(err)
		}
		return append(reports, tail...), s.Late()
	}
	var lateRef, lateBulk bytes.Buffer
	wantReports, wantLate := zeroLateness(true, &lateRef)
	gotReports, gotLate := zeroLateness(false, &lateBulk)
	if !reflect.DeepEqual(wantReports, gotReports) {
		t.Fatal("zero-lateness PushFrame replay diverges from per-record replay")
	}
	if gotLate != wantLate {
		t.Fatalf("late counts diverge: %d (push) vs %d (frame)", wantLate, gotLate)
	}
	if !bytes.Equal(lateRef.Bytes(), lateBulk.Bytes()) {
		t.Fatal("zero-lateness replays archived different frame bytes")
	}

	// A session recorded from permuted-within-lateness arrivals archives
	// canonical frames; its bulk replay must land on the same reports.
	permLive, permData := record(permuteWithinLateness(records, lateness/2, 3))
	if !reflect.DeepEqual(live, permLive) {
		t.Fatal("permuted live session diverges (pre-existing invariant)")
	}
	if got := bulkReplay(t, permData, topo, 3, nil, WithWorkers(4), WithLocalization(LocalizationConfig{})); !reflect.DeepEqual(permLive, got) {
		t.Fatal("PushFrame replay of permuted-session archive diverges")
	}
}
