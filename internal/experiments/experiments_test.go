package experiments

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden accuracy matrices and paper tables under testdata")

// checkGolden compares an accuracy matrix — an experiment's Report() minus
// its wall-clock line — against testdata/<name>, so "no refactor may move a
// cell" is a test rather than a by-hand diff of cmd/repro output. The files
// were written by the code as it stood before the experiments moved onto
// Monitor.Stream; go test ./internal/experiments -update rewrites them, and
// only a change that means to move a cell may do that.
func checkGolden(t *testing.T, name, report string) {
	t.Helper()
	var got strings.Builder
	for _, line := range strings.SplitAfter(report, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "wall:") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s moved:\n--- got\n%s--- want\n%s", name, got.String(), want)
	}
}

// The fast experiments run unconditionally (they are the -short coverage);
// the multi-second ones skip under -short and are exercised at full small
// scale by the default `go test ./...` run and by cmd/repro at paper scale.

func TestFig3SmallScale(t *testing.T) {
	res, err := Fig3(context.Background(), Options{Scale: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueJobs < 2 {
		t.Fatalf("too few jobs simulated: %d", res.TrueJobs)
	}
	if !res.Recognition.Perfect() {
		t.Errorf("recognition not perfect: %+v", res.Recognition)
	}
	if res.CrossMachineClusters <= res.JobClusters {
		t.Errorf("expected more rail clusters (%d) than job clusters (%d)",
			res.CrossMachineClusters, res.JobClusters)
	}
	if !strings.Contains(res.Report(), "perfect=true") {
		t.Error("report should state perfect recognition")
	}
}

func TestTable1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	// 32 nodes → PP=4, DP=8: with DP=4 the two collective rings share the
	// same undirected edges (stride 3 is the reverse of stride 1) and the
	// DP graph is a bare cycle that correlated noise can disconnect — the
	// A3 ablation's subject. DP=8 gives the refinement the density the
	// paper's 1,024-GPU jobs have.
	cfg := Table1Config{
		Jobs:        2,
		NodesPerJob: 32,
		Windows:     []time.Duration{75 * time.Second, 150 * time.Second},
		TargetStep:  8 * time.Second,
	}
	res, err := Table1(context.Background(), cfg, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.PairsEvaluated == 0 {
			t.Errorf("window %v evaluated no pairs", row.Window)
		}
		if row.AccWith < row.AccWithout-1e-9 {
			t.Errorf("window %v: refinement hurt accuracy (%.4f < %.4f)",
				row.Window, row.AccWith, row.AccWithout)
		}
		if row.AccWith < 0.93 {
			t.Errorf("window %v: refined accuracy %.4f, want ~1", row.Window, row.AccWith)
		}
	}
	if !strings.Contains(res.Report(), "LLMPrism w/o refinement") {
		t.Error("report missing baseline row")
	}
}

// TestTable1TinyConcurrentMatchesSequential is the -short equivalent of the
// Table I test: a tiny two-job configuration whose per-job simulations fan
// out, asserting the concurrent rows are bit-identical to the sequential
// ones.
func TestTable1TinyConcurrentMatchesSequential(t *testing.T) {
	cfg := Table1Config{
		Jobs:        2,
		NodesPerJob: 16,
		Windows:     []time.Duration{45 * time.Second},
		TargetStep:  5 * time.Second,
	}
	seq, err := Table1(context.Background(), cfg, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Table1(context.Background(), cfg, Options{Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq.Rows, par.Rows) {
		t.Errorf("concurrent rows diverge from sequential:\nseq %+v\npar %+v", seq.Rows, par.Rows)
	}
	if len(seq.Rows) != 1 || seq.Rows[0].PairsEvaluated == 0 {
		t.Errorf("degenerate tiny run: %+v", seq.Rows)
	}
}

func TestFig4SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res, err := Fig4(context.Background(), Options{Scale: 0.15, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score.MatchedSteps == 0 {
		t.Fatal("no steps matched")
	}
	// At 10s steps the invisible tail is ~12ms → ~0.12% expected.
	if res.Score.MeanRelError > 0.003 {
		t.Errorf("mean reconstruction error %.4f%%, want <= 0.3%%", 100*res.Score.MeanRelError)
	}
	if res.Render == "" || !strings.Contains(res.Render, "D") {
		t.Error("timeline render missing DP paint")
	}
}

func TestFig5SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res, err := Fig5(context.Background(), Options{Scale: 0.4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.InjectedFlagged != len(res.Injected) {
		t.Errorf("injected flagged %d/%d; flagged set %v",
			res.InjectedFlagged, len(res.Injected), res.Flagged)
	}
	if res.DegradedP90 >= res.NormalP10 {
		t.Errorf("degraded band [%0.f, %0.f] not below healthy band [%0.f, %0.f]",
			res.DegradedP10, res.DegradedP90, res.NormalP10, res.NormalP90)
	}
	if !strings.Contains(res.Report(), "per-switch mean DP bandwidth") {
		t.Error("report missing series table")
	}
}

func TestDiagnosisSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res, err := Diagnosis(context.Background(), Options{Scale: 1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !res.StragglerJobDetected {
		t.Errorf("straggler not detected: %+v", res)
	}
	if !res.SlowGroupDetected {
		t.Errorf("slow DP group not detected: %+v", res)
	}
}

func TestAblationNetsimMode(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res, err := AblationNetsimMode(context.Background(), Options{Scale: 0.15, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.FairShareError <= 0 || res.AnalyticError <= 0 {
		t.Errorf("degenerate errors: %+v", res)
	}
}

func TestAblationStepSplitter(t *testing.T) {
	res, err := AblationStepSplitter(context.Background(), Options{Scale: 1, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsEvaluated == 0 {
		t.Fatal("no pairs evaluated")
	}
	if res.BOCDStepCountErr > res.NaiveStepCountErr {
		t.Errorf("BOCD (%.4f) worse than naive (%.4f)", res.BOCDStepCountErr, res.NaiveStepCountErr)
	}
}

func TestAblationRingCount(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment test")
	}
	res, err := AblationRingCount(context.Background(), Options{Scale: 0.5, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.AccWith < row.AccWithout-1e-9 {
			t.Errorf("rings=%d: refinement hurt accuracy", row.Rings)
		}
	}
}

// TestLocalizationMatrixShortGrid runs the localization scenario matrix on
// the reduced grid (the -short configuration: every scenario at 1x load,
// plus the historically weakest cell, fabric-link-degrade at 2x) and holds
// the fused cross-window ranking to the acceptance bar: every single-fault
// scenario must place the injected component at rank 1 in at least 80% of
// the windows where its corresponding alert fired, the multi-fault
// scenarios must recover at least half their faults within the top K, and
// the 2x fabric-link-degrade cell must beat the 67% top-1 the per-window
// ranking plateaued at before localization fusion. Unlike the paper-figure
// experiments this is not skipped in -short — it is the regression gate
// for the localization engine.
func TestLocalizationMatrixShortGrid(t *testing.T) {
	res, err := Localization(context.Background(), Options{Scale: 0.3, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("reduced grid rows = %d, want 8 (7 scenarios at 1x + fabric-link-degrade at 2x)", len(res.Rows))
	}
	var sawWeakestCell bool
	for _, row := range res.Rows {
		if row.Load != "1x" {
			if row.Scenario != "fabric-link-degrade" || row.Load != "2x" {
				t.Errorf("%s: reduced grid ran unexpected cell at load %s", row.Scenario, row.Load)
			}
		}
		if row.Score.Windows == 0 {
			t.Errorf("%s/%s: no window was scored (detectors never fired during the fault)", row.Scenario, row.Load)
			continue
		}
		if row.Scenario == "fabric-link-degrade" && row.Load == "2x" {
			sawWeakestCell = true
			if got := row.Score.Top1Rate(); got <= 0.67 {
				t.Errorf("fabric-link-degrade/2x: fused top-1 rate %.0f%% has regressed to the pre-fusion plateau (want > 67%%)", 100*got)
			}
		}
		if row.SingleFault {
			if got := row.Score.Top1Rate(); got < 0.8 {
				t.Errorf("%s/%s: top-1 rate %.0f%% < 80%% over %d scored windows",
					row.Scenario, row.Load, 100*got, row.Score.Windows)
			}
		} else if got := row.Score.Recall(); got < 0.5 {
			t.Errorf("%s/%s: top-%d recall %.0f%% < 50%%", row.Scenario, row.Load, res.K, 100*got)
		}
	}
	if !sawWeakestCell {
		t.Error("reduced grid missing the fabric-link-degrade 2x cell")
	}
	if !strings.Contains(res.Report(), "root-cause localization") {
		t.Error("report missing the localization table")
	}
	checkGolden(t, "localize_short.golden", res.Report())
}

// TestPaperGolden pins the paper's own tables and figures: the reports of
// E1–E5 and the two ablations whose columns are not timings, at -scale 0.25
// and seed 1, against testdata/paper_short.golden. It runs in the -short
// pass, so a change that moves a float anywhere under the analyzer is
// judged against the paper's numbers by a test. The file was written by the
// experiments as they stood on the record-slice reference path, before they
// moved onto the shipped frame path.
func TestPaperGolden(t *testing.T) {
	names := []string{"fig3", "table1", "fig4", "fig5", "diagnosis", "a2", "a3"}
	outcomes, err := Run(context.Background(), names, Options{Scale: 0.25, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var report strings.Builder
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("%s: %v", o.Spec.Name, o.Err)
		}
		fmt.Fprintf(&report, "=== %s ===\n%s\n", o.Spec.Desc, o.Result.Report())
	}
	checkGolden(t, "paper_short.golden", report.String())
}

func TestRunnerRegistryComplete(t *testing.T) {
	want := []string{"fig3", "table1", "fig4", "fig5", "diagnosis", "localize", "loss", "a1", "a2", "a3"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Errorf("registry names = %v, want %v", got, want)
	}
	for _, s := range All() {
		if s.Run == nil || s.Desc == "" {
			t.Errorf("spec %q incomplete", s.Name)
		}
	}
}

func TestRunnerUnknownName(t *testing.T) {
	if _, err := Run(context.Background(), []string{"fig3", "nope"}, Options{}, 2); err == nil ||
		!strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown name not rejected: %v", err)
	}
}

func TestRunnerCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, []string{"fig3"}, Options{Scale: 0.1}, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestRunnerConcurrentMatchesSequential runs a cheap experiment subset
// through the concurrent runner and asserts the outcomes are bit-identical
// to the sequential (workers=1) pass — the determinism guarantee the
// -workers flag of cmd/repro relies on. Wall-clock fields are zeroed before
// comparison; everything else must match exactly.
func TestRunnerConcurrentMatchesSequential(t *testing.T) {
	names := []string{"fig3", "a2"}
	opts := Options{Scale: 0.1, Seed: 21}
	seq, err := Run(context.Background(), names, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), names, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 || len(par) != 2 {
		t.Fatalf("outcomes = %d/%d, want 2/2", len(seq), len(par))
	}
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("experiment %s failed: seq=%v par=%v", seq[i].Spec.Name, seq[i].Err, par[i].Err)
		}
		if seq[i].Spec.Name != par[i].Spec.Name {
			t.Fatalf("outcome order diverged: %s vs %s", seq[i].Spec.Name, par[i].Spec.Name)
		}
	}
	seqFig3 := *seq[0].Result.(*Fig3Result)
	parFig3 := *par[0].Result.(*Fig3Result)
	seqFig3.SimWall, seqFig3.AnalysisWall = 0, 0
	parFig3.SimWall, parFig3.AnalysisWall = 0, 0
	if !reflect.DeepEqual(seqFig3, parFig3) {
		t.Errorf("fig3 outcomes diverge:\nseq %+v\npar %+v", seqFig3, parFig3)
	}
	if !reflect.DeepEqual(seq[1].Result, par[1].Result) {
		t.Errorf("a2 outcomes diverge:\nseq %+v\npar %+v", seq[1].Result, par[1].Result)
	}
}
