package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/testbed"
)

var update = flag.Bool("update", false, "rewrite testdata/timeline.golden")

// writeTrace simulates a tiny two-job platform and writes the flows + topo
// files the CLI consumes.
func writeTrace(t *testing.T) (flowsPath, topoPath string) {
	t.Helper()
	dir := t.TempDir()
	topoSpec := llmprism.TopologySpec{Nodes: 8, NodesPerLeaf: 4, Spines: 2}
	jobs, err := testbed.PlanJobs(topoSpec, []testbed.JobPlan{
		{Nodes: 4, TargetStep: 2 * time.Second},
		{Nodes: 4, TargetStep: 2 * time.Second},
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := testbed.Simulate(testbed.Scenario{
		Name: "cli-smoke", Topo: topoSpec, Jobs: jobs, Horizon: 12 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	flowsPath = filepath.Join(dir, "flows.csv")
	ff, err := os.Create(flowsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer ff.Close()
	if err := flow.WriteCSV(ff, res.Records); err != nil {
		t.Fatal(err)
	}
	topoPath = filepath.Join(dir, "topo.json")
	tf, err := os.Create(topoPath)
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	if err := res.Topo.WriteJSON(tf); err != nil {
		t.Fatal(err)
	}
	return flowsPath, topoPath
}

func TestRunAnalyze(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"analyze", "-flows", flows, "-topo", topo, "-workers", "4",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "recognized 2 training jobs") {
		t.Errorf("analyze output missing job count:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "alerts (") {
		t.Errorf("analyze output missing alert section:\n%s", out.String())
	}
}

func TestRunDiagnose(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"diagnose", "-flows", flows, "-topo", topo, "-bucket", "5s", "-workers", "2",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "alerts (") {
		t.Errorf("diagnose output missing alert section:\n%s", out.String())
	}
	if strings.Contains(out.String(), "root-cause suspects") {
		t.Errorf("suspects printed without -localize:\n%s", out.String())
	}

	out.Reset()
	err = run(context.Background(), []string{
		"diagnose", "-flows", flows, "-topo", topo, "-bucket", "5s", "-localize",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "root-cause suspects") {
		t.Errorf("diagnose -localize output missing suspects section:\n%s", out.String())
	}
}

func TestRunSwitches(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"switches", "-flows", flows, "-topo", topo, "-bucket", "5s",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "switch-level alerts:") {
		t.Errorf("switches output missing alert section:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), nil, &out, &out); err == nil {
		t.Error("missing subcommand accepted")
	}
	if err := run(context.Background(), []string{"frobnicate"}, &out, &out); err == nil ||
		!strings.Contains(err.Error(), "flows.csv") && !strings.Contains(err.Error(), "frobnicate") {
		// The unknown command fails at load time (default -flows path) or
		// at dispatch; either way run must error.
		t.Errorf("unknown command: err = %v", err)
	}
	flows, topo := writeTrace(t)
	if err := run(context.Background(), []string{
		"timeline", "-flows", flows, "-topo", topo, "-job", "99",
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range job index: err = %v", err)
	}
	// -ranks below 1 is a usage error, rejected before any flow is read
	// (the flow file here does not exist).
	for _, n := range []string{"0", "-1"} {
		if err := run(context.Background(), []string{
			"timeline", "-flows", filepath.Join(t.TempDir(), "missing.csv"), "-topo", topo, "-ranks", n,
		}, &out, &out); err == nil || !strings.Contains(err.Error(), "-ranks") {
			t.Errorf("-ranks %s: err = %v", n, err)
		}
	}
}

// TestTimelineGolden pins the timeline subcommand's stdout: both of
// writeTrace's jobs, 16 ranks, at two widths, against
// testdata/timeline.golden. go test ./cmd/llmprism -run TestTimelineGolden
// -update rewrites it; only a change that means to move a swimlane may.
func TestTimelineGolden(t *testing.T) {
	flows, topo := writeTrace(t)
	var got strings.Builder
	for _, job := range []string{"0", "1"} {
		for _, width := range []string{"60", "120"} {
			fmt.Fprintf(&got, "== job %s width %s\n", job, width)
			if err := run(context.Background(), []string{
				"timeline", "-flows", flows, "-topo", topo,
				"-job", job, "-ranks", "16", "-width", width,
			}, &got, &got); err != nil {
				t.Fatal(err)
			}
		}
	}
	path := filepath.Join("testdata", "timeline.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("timeline output moved:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

func TestRunHelpIsNotAnError(t *testing.T) {
	var out, errOut strings.Builder
	if err := run(context.Background(), []string{"analyze", "-h"}, &out, &errOut); err != nil {
		t.Errorf("-h returned error: %v", err)
	}
	if !strings.Contains(errOut.String(), "-workers") {
		t.Errorf("usage text missing from stderr:\n%s", errOut.String())
	}
}

func TestRunCanceled(t *testing.T) {
	flows, topo := writeTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	if err := run(ctx, []string{"analyze", "-flows", flows, "-topo", topo}, &out, &out); err == nil {
		t.Error("canceled context did not abort analysis")
	}
}

func TestRunMonitor(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"monitor", "-flows", flows, "-topo", topo,
		"-window", "4s", "-lateness", "1s", "-batch", "2s", "-depth", "2", "-workers", "2",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "window 0 [") || !strings.Contains(got, "window 2 [") {
		t.Errorf("monitor output missing per-window lines:\n%s", got)
	}
	if !strings.Contains(got, "late drops (record-window assignments): 0") {
		t.Errorf("monitor output missing late-record summary:\n%s", got)
	}
}

// windowLines extracts the per-window report block of a monitor/record/
// replay run — every "window N [..." line plus its indented incident lines
// and the trailing late-drop summary — the part that must be identical
// between a recorded session and its replay.
func windowLines(out string) []string {
	var lines []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "window ") || strings.HasPrefix(line, "  ") ||
			strings.HasPrefix(line, "late drops") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestRunRecordReplay is the CLI acceptance gate for the archive path:
// record persists the monitored windows, replay reopens them — no flow
// file — and the two sessions' window reports must match line for line.
func TestRunRecordReplay(t *testing.T) {
	flows, topo := writeTrace(t)
	arch := filepath.Join(filepath.Dir(flows), "trace.llpa")

	var recOut strings.Builder
	err := run(context.Background(), []string{
		"record", "-flows", flows, "-topo", topo, "-archive", arch,
		"-window", "4s", "-lateness", "1s", "-batch", "2s", "-depth", "2", "-bucket", "2s",
		"-localize",
	}, &recOut, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(recOut.String(), "archived ") {
		t.Errorf("record output missing archive summary:\n%s", recOut.String())
	}
	if _, err := os.Stat(arch); err != nil {
		t.Fatalf("archive not written: %v", err)
	}

	// Replay with the same detector settings (including -localize, so the
	// per-window suspect lines are compared too).
	var repOut strings.Builder
	err = run(context.Background(), []string{
		"replay", "-archive", arch, "-topo", topo, "-depth", "3", "-bucket", "2s",
		"-localize",
	}, &repOut, &repOut)
	if err != nil {
		t.Fatal(err)
	}
	rec, rep := windowLines(recOut.String()), windowLines(repOut.String())
	if len(rec) == 0 {
		t.Fatalf("record emitted no window lines:\n%s", recOut.String())
	}
	if !slices.Equal(rec, rep) {
		t.Errorf("replay diverges from recorded session:\nrecord:\n%s\nreplay:\n%s",
			strings.Join(rec, "\n"), strings.Join(rep, "\n"))
	}
}

// TestRunRecordReplaySuppress extends the record/replay line-compare gate
// to the incident-centric path: with -suppress-chronic and -localize the
// replayed session must reproduce the recorded chronic classification,
// suppressed alert surface and fused suspect lines bit for bit.
func TestRunRecordReplaySuppress(t *testing.T) {
	flows, topo := writeTrace(t)
	arch := filepath.Join(filepath.Dir(flows), "trace.llpa")

	var recOut strings.Builder
	err := run(context.Background(), []string{
		"record", "-flows", flows, "-topo", topo, "-archive", arch,
		"-window", "4s", "-lateness", "1s", "-batch", "2s", "-depth", "2", "-bucket", "2s",
		"-localize", "-suppress-chronic",
	}, &recOut, &recOut)
	if err != nil {
		t.Fatal(err)
	}

	var repOut strings.Builder
	err = run(context.Background(), []string{
		"replay", "-archive", arch, "-topo", topo, "-depth", "3", "-bucket", "2s",
		"-localize", "-suppress-chronic",
	}, &repOut, &repOut)
	if err != nil {
		t.Fatal(err)
	}
	rec, rep := windowLines(recOut.String()), windowLines(repOut.String())
	if len(rec) == 0 {
		t.Fatalf("record emitted no window lines:\n%s", recOut.String())
	}
	if !slices.Equal(rec, rep) {
		t.Errorf("suppressed replay diverges from recorded session:\nrecord:\n%s\nreplay:\n%s",
			strings.Join(rec, "\n"), strings.Join(rep, "\n"))
	}
}

func TestRunRecordRequiresArchive(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	if err := run(context.Background(), []string{
		"record", "-flows", flows, "-topo", topo,
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "-archive") {
		t.Errorf("record without -archive: err = %v", err)
	}
	if err := run(context.Background(), []string{
		"replay", "-topo", topo,
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "-archive") {
		t.Errorf("replay without -archive: err = %v", err)
	}
}

func TestRunReplayRejectsGarbage(t *testing.T) {
	_, topo := writeTrace(t)
	bad := filepath.Join(t.TempDir(), "bad.llpa")
	if err := os.WriteFile(bad, []byte("not an archive at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{
		"replay", "-archive", bad, "-topo", topo,
	}, &out, &out); err == nil {
		t.Error("garbage archive accepted")
	}
}

func TestRunMonitorHopped(t *testing.T) {
	flows, topo := writeTrace(t)
	var out strings.Builder
	err := run(context.Background(), []string{
		"monitor", "-flows", flows, "-topo", topo,
		"-window", "6s", "-hop", "3s", "-batch", "3s",
	}, &out, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "hop 3s") {
		t.Errorf("monitor output missing hop configuration:\n%s", out.String())
	}
}

// TestRunRecordAtomicAndReplayRecover is the CLI crash-safety gate: record
// must land the archive atomically (no leftover temporary), strict replay
// must reject a torn copy, and replay -recover must salvage the torn
// copy's intact window prefix with output line-identical to a clean
// replay of the same windows — the recovery note going to stderr only.
func TestRunRecordAtomicAndReplayRecover(t *testing.T) {
	flows, topo := writeTrace(t)
	arch := filepath.Join(filepath.Dir(flows), "trace.llpa")

	var recOut strings.Builder
	err := run(context.Background(), []string{
		"record", "-flows", flows, "-topo", topo, "-archive", arch,
		"-window", "4s", "-lateness", "1s", "-batch", "2s", "-depth", "2", "-bucket", "2s",
		"-localize",
	}, &recOut, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(arch); err != nil {
		t.Fatalf("archive not renamed into place: %v", err)
	}
	if _, err := os.Stat(arch + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("temporary archive left behind: stat err = %v", err)
	}

	var cleanOut strings.Builder
	err = run(context.Background(), []string{
		"replay", "-archive", arch, "-topo", topo, "-depth", "2", "-bucket", "2s", "-localize",
	}, &cleanOut, &cleanOut)
	if err != nil {
		t.Fatal(err)
	}
	want := windowLines(cleanOut.String())
	if len(want) == 0 {
		t.Fatalf("clean replay emitted no window lines:\n%s", cleanOut.String())
	}

	// Tear the trailer off a copy: strict replay must refuse it, -recover
	// must salvage every archived window and reproduce the clean replay.
	data, err := os.ReadFile(arch)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(filepath.Dir(flows), "torn.llpa")
	if err := os.WriteFile(torn, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(context.Background(), []string{
		"replay", "-archive", torn, "-topo", topo, "-depth", "2", "-bucket", "2s", "-localize",
	}, &out, &out); err == nil {
		t.Error("strict replay accepted a torn archive")
	}
	var gotOut, gotErr strings.Builder
	err = run(context.Background(), []string{
		"replay", "-recover", "-archive", torn, "-topo", topo, "-depth", "2", "-bucket", "2s", "-localize",
	}, &gotOut, &gotErr)
	if err != nil {
		t.Fatalf("replay -recover: %v\nstderr:\n%s", err, gotErr.String())
	}
	if !strings.Contains(gotErr.String(), "recovered archive") {
		t.Errorf("recovery note missing from stderr:\n%s", gotErr.String())
	}
	if got := windowLines(gotOut.String()); !slices.Equal(got, want) {
		t.Errorf("trailer-torn recovery diverges from clean replay:\nclean:\n%s\nrecovered:\n%s",
			strings.Join(want, "\n"), strings.Join(got, "\n"))
	}

	// Cut mid-archive: the salvaged prefix must replay as a line-for-line
	// prefix of the clean replay (late-drop summaries excluded — the
	// recovered session closes earlier).
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	gotOut.Reset()
	gotErr.Reset()
	err = run(context.Background(), []string{
		"replay", "-recover", "-archive", torn, "-topo", topo, "-depth", "2", "-bucket", "2s", "-localize",
	}, &gotOut, &gotErr)
	if err != nil {
		t.Fatalf("replay -recover (half): %v\nstderr:\n%s", err, gotErr.String())
	}
	drop := func(lines []string) []string {
		var kept []string
		for _, l := range lines {
			if !strings.HasPrefix(l, "late drops") {
				kept = append(kept, l)
			}
		}
		return kept
	}
	got, ref := drop(windowLines(gotOut.String())), drop(want)
	if len(got) > len(ref) || !slices.Equal(got, ref[:len(got)]) {
		t.Errorf("mid-cut recovery is not a prefix of the clean replay:\nclean:\n%s\nrecovered:\n%s",
			strings.Join(ref, "\n"), strings.Join(got, "\n"))
	}
}

// TestRunRecordStoreReplayScan is the CLI acceptance gate for the
// multi-segment store: record -store rotates per window, replay accepts
// the store directory and reproduces the recorded reports line for line,
// and scan both lists matching flows and re-analyzes a selected slice.
func TestRunRecordStoreReplayScan(t *testing.T) {
	flows, topo := writeTrace(t)
	store := filepath.Join(filepath.Dir(flows), "trace.llps")

	var recOut strings.Builder
	err := run(context.Background(), []string{
		"record", "-flows", flows, "-topo", topo, "-store", store,
		"-rotate-windows", "1",
		"-window", "4s", "-lateness", "1s", "-batch", "2s", "-depth", "2", "-bucket", "2s",
		"-localize",
	}, &recOut, &recOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(recOut.String(), "archived ") || !strings.Contains(recOut.String(), "to store ") {
		t.Errorf("record output missing store summary:\n%s", recOut.String())
	}
	segs, err := filepath.Glob(filepath.Join(store, "seg-*.llpa"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("store rotated into %d segments, want ≥ 2", len(segs))
	}

	var repOut strings.Builder
	err = run(context.Background(), []string{
		"replay", "-archive", store, "-topo", topo, "-depth", "3", "-bucket", "2s",
		"-localize",
	}, &repOut, &repOut)
	if err != nil {
		t.Fatal(err)
	}
	rec, rep := windowLines(recOut.String()), windowLines(repOut.String())
	if len(rec) == 0 {
		t.Fatalf("record emitted no window lines:\n%s", recOut.String())
	}
	if !slices.Equal(rec, rep) {
		t.Errorf("store replay diverges from recorded session:\nrecord:\n%s\nreplay:\n%s",
			strings.Join(rec, "\n"), strings.Join(rep, "\n"))
	}

	// Unbounded scan lists every archived flow.
	var scanOut strings.Builder
	if err := run(context.Background(), []string{
		"scan", "-archive", store,
	}, &scanOut, &scanOut); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(scanOut.String(), "\n"), "\n")
	summary := lines[len(lines)-1]
	if !strings.HasPrefix(summary, "matched ") || strings.HasPrefix(summary, "matched 0 flows") {
		t.Fatalf("scan summary = %q, want non-zero match count", summary)
	}

	// Pair-bounded scan: the first listed flow's endpoints must match
	// themselves; an address pair outside the topology matches nothing.
	fields := strings.Fields(lines[0])
	if len(fields) < 4 || fields[2] != "->" {
		t.Fatalf("unexpected scan line %q", lines[0])
	}
	scanOut.Reset()
	if err := run(context.Background(), []string{
		"scan", "-archive", store, "-pair", fields[1] + "," + fields[3],
	}, &scanOut, &scanOut); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(scanOut.String(), "matched 0 flows") {
		t.Errorf("pair scan of a recorded pair matched nothing:\n%s", scanOut.String())
	}
	scanOut.Reset()
	if err := run(context.Background(), []string{
		"scan", "-archive", store, "-pair", "10.254.254.1,10.254.254.2",
	}, &scanOut, &scanOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(scanOut.String(), "matched 0 flows in 0 windows") {
		t.Errorf("pair scan of an absent pair matched flows:\n%s", scanOut.String())
	}

	// scan -replay with no bounds re-analyzes the whole store: its window
	// lines must equal the recorded session's.
	var qrepOut strings.Builder
	if err := run(context.Background(), []string{
		"scan", "-replay", "-archive", store, "-topo", topo, "-depth", "2", "-bucket", "2s",
		"-localize",
	}, &qrepOut, &qrepOut); err != nil {
		t.Fatal(err)
	}
	if got := windowLines(qrepOut.String()); !slices.Equal(got, rec) {
		t.Errorf("scan -replay over the whole store diverges from recorded session:\nrecord:\n%s\nscan:\n%s",
			strings.Join(rec, "\n"), strings.Join(got, "\n"))
	}

	// Time-bounded scan -replay prunes segments and analyzes a strict
	// subset of windows (the simulated platform starts 2026-01-01T12:00Z).
	var sliceOut strings.Builder
	if err := run(context.Background(), []string{
		"scan", "-replay", "-archive", store, "-topo", topo, "-bucket", "2s",
		"-to", "2026-01-01T12:00:06Z",
	}, &sliceOut, &sliceOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sliceOut.String(), fmt.Sprintf("2 of %d segments", len(segs))) {
		t.Errorf("time-bounded scan -replay did not prune to 2 segments:\n%s", sliceOut.String())
	}
	var sliceWindows int
	for _, l := range windowLines(sliceOut.String()) {
		if strings.HasPrefix(l, "window ") {
			sliceWindows++
		}
	}
	if sliceWindows == 0 || sliceWindows >= len(segs) {
		t.Errorf("time-bounded scan -replay analyzed %d windows, want a non-empty strict subset of %d", sliceWindows, len(segs))
	}
}

func TestRunScanErrors(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"scan"}, &out, &out); err == nil ||
		!strings.Contains(err.Error(), "-archive") {
		t.Errorf("scan without -archive: err = %v", err)
	}
	if err := run(context.Background(), []string{
		"scan", "-archive", "x", "-from", "yesterday",
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "-from") {
		t.Errorf("scan with bad -from: err = %v", err)
	}
	if err := run(context.Background(), []string{
		"scan", "-archive", "x", "-pair", "nonsense",
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "-pair") {
		t.Errorf("scan with bad -pair: err = %v", err)
	}
	if err := run(context.Background(), []string{
		"scan", "-archive", "x", "-switch", "leaf!",
	}, &out, &out); err == nil || !strings.Contains(err.Error(), "-switch") {
		t.Errorf("scan with bad -switch: err = %v", err)
	}
}
