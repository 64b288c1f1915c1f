package llmprism

import (
	"bytes"
	"context"
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/topology"
)

// archiveBoundaries walks a clean archive image and returns prefix
// lengths: bounds[k] is the byte length of a prefix holding exactly k
// complete segments (bounds[0] is the 32-byte header alone). Layout per
// the LPA1 package doc: each segment is a 40-byte header whose final u64
// is the frame blob length, followed by the blob.
func archiveBoundaries(t *testing.T, data []byte, segments int) []int64 {
	t.Helper()
	const (
		headerSize    = 32
		segHeaderSize = 40
	)
	bounds := []int64{headerSize}
	off := int64(headerSize)
	for k := 0; k < segments; k++ {
		frameLen := binary.LittleEndian.Uint64(data[off+32:])
		off += segHeaderSize + int64(frameLen)
		if off > int64(len(data)) {
			t.Fatalf("segment %d ends at %d, past archive end %d", k, off, len(data))
		}
		bounds = append(bounds, off)
	}
	return bounds
}

// replayRecovered salvages an archive image (torn or clean) and replays
// whatever survived through a fresh monitor session on the reconstructed
// grid — the library-level equivalent of `llmprism replay -recover`.
func replayRecovered(t *testing.T, data []byte, topo *topology.Topology, opts ...Option) ([]*Report, *archive.RecoveryReport) {
	t.Helper()
	ar, rep, err := archive.OpenReaderRecovering(bytes.NewReader(data), int64(len(data)))
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
	if err := ar.Replay(func(_ TraceArchiveSegment, f *FlowFrame) error {
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
	return append(reports, tail...), rep
}

// TestRecoveredArchiveReplaysSalvagedPrefix is the crash-equivalence gate
// for capture: an archive torn after window k — at a segment boundary or
// anywhere inside the next segment — salvages exactly k windows, and
// replaying them reproduces the first k reports of the uninterrupted
// session bit for bit (job ids, incidents, localization suspects). Run
// with -race to cover the pipelined replay handoff.
func TestRecoveredArchiveReplaysSalvagedPrefix(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window   = 5 * time.Second
		lateness = 2 * time.Second
	)

	var buf bytes.Buffer
	m, err := NewMonitor(New(WithWorkers(4), WithLocalization(LocalizationConfig{})), topo, window,
		WithLateness(lateness), WithPipelineDepth(3), WithArchive(&buf))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := pushAll(t, s, records, 300)
	data := buf.Bytes()
	if len(want) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(want))
	}

	// The clean image opens strictly.
	if _, rep := replayRecovered(t, data, topo, WithWorkers(4), WithLocalization(LocalizationConfig{})); !rep.Clean || rep.Segments != len(want) {
		t.Fatalf("clean archive: %s", rep)
	}

	bounds := archiveBoundaries(t, data, len(want))
	check := func(name string, cut int64, k int) {
		t.Helper()
		got, rep := replayRecovered(t, data[:cut], topo, WithWorkers(4), WithLocalization(LocalizationConfig{}))
		if rep.Clean {
			t.Fatalf("%s: torn archive reported clean", name)
		}
		if rep.Segments != k {
			t.Fatalf("%s: salvaged %d segments, want %d (%s)", name, rep.Segments, k, rep)
		}
		if len(got) != k {
			t.Fatalf("%s: replay produced %d windows, want %d", name, len(got), k)
		}
		if k > 0 && !reflect.DeepEqual(want[:k], got) {
			t.Errorf("%s: salvaged replay diverges from uninterrupted session", name)
		}
	}

	// Tear at every segment boundary: exactly that prefix survives.
	for k := 0; k <= len(want); k++ {
		check("boundary", bounds[k], k)
	}
	// Tears inside a segment lose only that segment.
	check("mid segment header", bounds[1]+13, 1)
	check("one byte short", bounds[2]-1, 1)
	check("mid frame blob", bounds[2]+60, 2)
}
