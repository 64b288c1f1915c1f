package llmprism

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// resumeTail filters the full record trace down to the resumed session's
// replay input: every record starting at or after the resume boundary, in
// the original order.
func resumeTail(records []FlowRecord, from time.Time) []FlowRecord {
	var out []FlowRecord
	for _, r := range records {
		if !r.Start.Before(from) {
			out = append(out, r)
		}
	}
	return out
}

// TestResumeMonitorContinuesSession is the crash-equivalence gate for
// monitoring: a session checkpointed after window k and rebuilt with
// ResumeMonitor emits windows k+1..n bit-identical to the uninterrupted
// reference — job ids, incidents (chronic flags included), suspects and
// fused suspect scores. Run with -race to cover the pipelined handoff on
// both sides of the cut.
func TestResumeMonitorContinuesSession(t *testing.T) {
	records, topo := concurrencyTrace(t)
	// A 2s window over the 20s trace gives ~10 windows, so the pipelined
	// session releases windows while records are still arriving — the
	// checkpoint is taken genuinely mid-stream.
	const (
		window   = 2 * time.Second
		lateness = time.Second
		batch    = 300
	)

	variants := []struct {
		name  string
		mopts []MonitorOption
	}{
		{"localization", []MonitorOption{
			WithLateness(lateness), WithPipelineDepth(3),
		}},
		{"chronic suppression + coverage guard", []MonitorOption{
			WithLateness(lateness), WithPipelineDepth(3),
			WithChronicSuppression(IncidentConfig{}),
			WithCoverageGuard(CoverageConfig{}),
		}},
	}
	analyzer := func() *Analyzer {
		return New(WithWorkers(4), WithLocalization(LocalizationConfig{}))
	}

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			// Uninterrupted reference.
			m, err := NewMonitor(analyzer(), topo, window, v.mopts...)
			if err != nil {
				t.Fatal(err)
			}
			s, err := m.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			ref := pushAll(t, s, records, batch)
			if len(ref) < 3 {
				t.Fatalf("windows = %d, want >= 3", len(ref))
			}

			// Interrupted session: same feed until at least two windows have
			// been released, then checkpoint and abandon mid-stream.
			m, err = NewMonitor(analyzer(), topo, window, v.mopts...)
			if err != nil {
				t.Fatal(err)
			}
			s, err = m.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var head []*Report
			for lo := 0; lo < len(records) && len(head) < 2; lo += batch {
				hi := lo + batch
				if hi > len(records) {
					hi = len(records)
				}
				got, err := s.Push(records[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				head = append(head, got...)
			}
			if len(head) < 2 || len(head) >= len(ref) {
				t.Fatalf("interrupted session released %d of %d windows", len(head), len(ref))
			}
			var ck bytes.Buffer
			if err := s.Checkpoint(&ck); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Close(); err != nil { // post-checkpoint output is discarded
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref[:len(head)], head) {
				t.Fatal("interrupted session head diverges from reference (pre-existing invariant)")
			}

			// Resume and replay the tail of the trace.
			m2, err := ResumeMonitor(analyzer(), topo, &ck, v.mopts...)
			if err != nil {
				t.Fatal(err)
			}
			from := m2.ResumeFrom()
			if !from.Equal(ref[len(head)].Window.Start) {
				t.Fatalf("ResumeFrom = %v, want next window start %v", from, ref[len(head)].Window.Start)
			}
			s2, err := m2.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			tail := pushAll(t, s2, resumeTail(records, from), batch)
			if !reflect.DeepEqual(ref[len(head):], tail) {
				t.Errorf("resumed session diverges from uninterrupted reference (%d tail windows)", len(tail))
			}
		})
	}
}

// TestResumeMonitorRejectsMismatchedOptions: a checkpoint restores state,
// not configuration — resuming with a different localization or coverage
// setup must fail loudly instead of silently diverging.
func TestResumeMonitorRejectsMismatchedOptions(t *testing.T) {
	records, topo := concurrencyTrace(t)
	// Depth 1: a window's analysis finishes before the next one dispatches,
	// so the single Push below has released a window by the time it returns
	// and Checkpoint has a boundary to write, however the host is loaded.
	m, err := NewMonitor(New(WithLocalization(LocalizationConfig{})), topo, 5*time.Second,
		WithCoverageGuard(CoverageConfig{}), WithPipelineDepth(1))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Push(records); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := s.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data := ck.Bytes()

	// No localization on the resuming analyzer.
	if _, err := ResumeMonitor(New(), topo, bytes.NewReader(data), WithCoverageGuard(CoverageConfig{})); err == nil {
		t.Error("resume without localization accepted")
	}
	// No coverage guard in the resuming options.
	if _, err := ResumeMonitor(New(WithLocalization(LocalizationConfig{})), topo, bytes.NewReader(data)); err == nil {
		t.Error("resume without coverage guard accepted")
	}
	// Matching configuration resumes.
	if _, err := ResumeMonitor(New(WithLocalization(LocalizationConfig{})), topo, bytes.NewReader(data),
		WithCoverageGuard(CoverageConfig{})); err != nil {
		t.Fatal(err)
	}
}

// TestWithCheckpointFileResume covers the deployment shape: a session
// persisting its state through WithCheckpoint is killed (context
// cancellation, no Close), and a new process resumes from the file on
// disk, reproducing the reference session's remaining windows.
func TestWithCheckpointFileResume(t *testing.T) {
	records, topo := concurrencyTrace(t)
	const (
		window   = 2 * time.Second
		lateness = time.Second
		batch    = 300
	)
	path := filepath.Join(t.TempDir(), "session.ckpt")
	analyzer := func() *Analyzer {
		return New(WithWorkers(4), WithLocalization(LocalizationConfig{}))
	}

	// Uninterrupted reference (no checkpointing).
	m, err := NewMonitor(analyzer(), topo, window, WithLateness(lateness), WithPipelineDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := pushAll(t, s, records, batch)
	if len(ref) < 3 {
		t.Fatalf("windows = %d, want >= 3", len(ref))
	}

	// Checkpointing session, killed mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	m, err = NewMonitor(analyzer(), topo, window,
		WithLateness(lateness), WithPipelineDepth(3), WithCheckpoint(path))
	if err != nil {
		t.Fatal(err)
	}
	s, err = m.Stream(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var head []*Report
	for lo := 0; lo < len(records) && len(head) < 2; lo += batch {
		hi := lo + batch
		if hi > len(records) {
			hi = len(records)
		}
		got, err := s.Push(records[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		head = append(head, got...)
	}
	if len(head) < 2 || len(head) >= len(ref) {
		t.Fatalf("killed session released %d of %d windows", len(head), len(ref))
	}
	cancel() // the crash: in-flight windows die, the file keeps the last released state

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := ResumeMonitor(analyzer(), topo, f,
		WithPipelineDepth(3), WithCheckpoint(path))
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	tail := pushAll(t, s2, resumeTail(records, m2.ResumeFrom()), batch)
	if !reflect.DeepEqual(ref[len(head):], tail) {
		t.Fatal("resumed session diverges from uninterrupted reference")
	}
	// The resumed session kept checkpointing: the file now points past the
	// final window.
	f2, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	m3, err := ResumeMonitor(analyzer(), topo, f2, WithPipelineDepth(3))
	if err != nil {
		t.Fatal(err)
	}
	if last := ref[len(ref)-1].Window; !m3.ResumeFrom().After(last.Start) {
		t.Errorf("final checkpoint resumes at %v, not past last window %v", m3.ResumeFrom(), last.Start)
	}
}

// TestCoverageGuardMarksDegradedWindows pins the guard's window-level
// semantics on a hand-built trace: early windows pass unjudged while the
// baseline forms, a volume collapse is stamped degraded, and degraded
// windows do not poison the baseline for their successors.
func TestCoverageGuardMarksDegradedWindows(t *testing.T) {
	_, topo := monitorFixture(t)
	m, err := NewMonitor(New(), topo, 10*time.Second,
		WithCoverageGuard(CoverageConfig{BaselineWindows: 4, MinBaseline: 2, DegradedBelow: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	// Windows 0..2 hold 4 records each, window 3 collapses to one record,
	// window 4 recovers.
	var recs []FlowRecord
	id := uint64(0)
	emit := func(w int, n int) {
		for i := 0; i < n; i++ {
			id++
			recs = append(recs, monitorRecord(id, time.Duration(w*10)*time.Second+time.Duration(i)*time.Second, topo))
		}
	}
	emit(0, 4)
	emit(1, 4)
	emit(2, 4)
	emit(3, 1)
	emit(4, 4)
	reports := streamAll(t, m, recs, len(recs))
	if len(reports) != 5 {
		t.Fatalf("windows = %d, want 5", len(reports))
	}

	want := []Coverage{
		{Rows: 4},                        // no baseline yet: unjudged
		{Rows: 4},                        // still below MinBaseline
		{Rows: 4, Baseline: 4, Ratio: 1}, // judged healthy
		{Rows: 1, Baseline: 4, Ratio: 0.25, Degraded: true},
		{Rows: 4, Baseline: 4, Ratio: 1}, // degraded window did not drag the baseline down
	}
	for i, w := range want {
		if got := reports[i].Coverage; got != w {
			t.Errorf("window %d coverage = %+v, want %+v", i, got, w)
		}
	}
}
