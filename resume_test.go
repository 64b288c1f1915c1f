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
			WithChronicSuppression(),
			WithCoverageGuard(),
		}},
	}
	analyzer := func() *Analyzer {
		return New(WithWorkers(4), WithLocalization())
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
	m, err := NewMonitor(New(WithLocalization()), topo, 5*time.Second,
		WithCoverageGuard(), WithPipelineDepth(1))
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
	if _, err := ResumeMonitor(New(), topo, bytes.NewReader(data), WithCoverageGuard()); err == nil {
		t.Error("resume without localization accepted")
	}
	// No coverage guard in the resuming options.
	if _, err := ResumeMonitor(New(WithLocalization()), topo, bytes.NewReader(data)); err == nil {
		t.Error("resume without coverage guard accepted")
	}
	// Matching configuration resumes.
	if _, err := ResumeMonitor(New(WithLocalization()), topo, bytes.NewReader(data),
		WithCoverageGuard()); err != nil {
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
		return New(WithWorkers(4), WithLocalization())
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

// coverageRun streams one 10-second window per entry of rows, holding that
// many records, through a coverage-guarded monitor and returns each
// window's coverage stamp.
func coverageRun(t *testing.T, rows []int) []Coverage {
	t.Helper()
	_, topo := monitorFixture(t)
	m, err := NewMonitor(New(), topo, 10*time.Second, WithCoverageGuard())
	if err != nil {
		t.Fatal(err)
	}
	var recs []FlowRecord
	id := uint64(0)
	for w, n := range rows {
		for i := 0; i < n; i++ {
			id++
			recs = append(recs, monitorRecord(id, time.Duration(w*10)*time.Second+time.Duration(i)*500*time.Millisecond, topo))
		}
	}
	reports := streamAll(t, m, recs, len(recs))
	if len(reports) != len(rows) {
		t.Fatalf("windows = %d, want %d", len(reports), len(rows))
	}
	out := make([]Coverage, len(reports))
	for i, r := range reports {
		out[i] = r.Coverage
	}
	return out
}

// TestCoverageGuardMarksDegradedWindows pins the guard's window-level
// semantics on a hand-built trace: windows pass unjudged until
// coverageMinBaseline (3) healthy windows have formed the baseline, a
// window at exactly coverageDegradedBelow (half) of baseline is healthy, a
// volume collapse below it is stamped degraded, and degraded windows do
// not poison the baseline for their successors.
func TestCoverageGuardMarksDegradedWindows(t *testing.T) {
	got := coverageRun(t, []int{4, 4, 4, 2, 1, 4})
	want := []Coverage{
		{Rows: 4},                          // no baseline yet: unjudged
		{Rows: 4},                          // one healthy window: unjudged
		{Rows: 4},                          // two, one below coverageMinBaseline: unjudged
		{Rows: 2, Baseline: 4, Ratio: 0.5}, // three: judged; exactly half is healthy
		{Rows: 1, Baseline: 3.5, Ratio: 1 / 3.5, Degraded: true},
		{Rows: 4, Baseline: 3.5, Ratio: 4 / 3.5}, // degraded window did not drag the baseline down
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("window %d coverage = %+v, want %+v", i, got[i], w)
		}
	}
}

// TestCoverageGuardBaselineWindow: the baseline is the mean of the last
// coverageBaselineWindows (8) healthy windows. With eight windows of
// history the oldest still counts; with nine it has aged out.
func TestCoverageGuardBaselineWindow(t *testing.T) {
	got := coverageRun(t, []int{12, 4, 4, 4, 4, 4, 4, 4, 4, 4})
	for i, c := range got {
		if c.Degraded {
			t.Errorf("window %d degraded: %+v", i, c)
		}
	}
	if b := got[8].Baseline; b != 5 { // (12 + 7×4) / 8
		t.Errorf("window 8 baseline = %v, want 5 (eight windows of history, the oldest included)", b)
	}
	if b := got[9].Baseline; b != 4 {
		t.Errorf("window 9 baseline = %v, want 4 (the 12-row window aged out)", b)
	}
}
