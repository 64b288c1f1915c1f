package experiments

import (
	"context"
	"strings"
	"testing"

	"github.com/llmprism/llmprism/internal/core/diagnose"
)

// TestCollectorLossSweepShortGrid runs the collector-robustness sweep on
// the reduced grid (loss levels 0% and 5%) and holds it to the acceptance
// bars: the spine-degrade cells keep fused top-1 localization at >= 80%
// through 5% i.i.d. loss, loss alone introduces no alert kind the
// loss-free no-fault cell did not already show, and the leaf mirror
// blackout surfaces as coverage-degraded windows carrying zero alerts —
// suppressed evidence, not false diagnosis. Like the localization matrix,
// this is a regression gate and not skipped under -short.
func TestCollectorLossSweepShortGrid(t *testing.T) {
	res, err := CollectorLoss(context.Background(), Options{Scale: 0.3, Seed: 7, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("reduced grid rows = %d, want 5 (2 scenarios x 2 loss levels + blackout)", len(res.Rows))
	}

	rows := make(map[string]LossRow)
	baseKinds := make(map[diagnose.AlertKind]bool)
	for _, row := range res.Rows {
		rows[row.Scenario+"@"+trimFloat(row.Loss)] = row
		if row.Windows == 0 {
			t.Errorf("%s/%g: no windows analyzed", row.Scenario, row.Loss)
		}
		if row.DegradedAlerts != 0 {
			t.Errorf("%s/%g: %d alerts surfaced on degraded windows", row.Scenario, row.Loss, row.DegradedAlerts)
		}
		if row.Scenario == "no-fault" && row.Loss == 0 {
			for _, k := range row.AlertKinds {
				baseKinds[k] = true
			}
		}
	}

	// Loss must not invent alert kinds on a healthy platform.
	for _, key := range []string{"no-fault@0.05"} {
		row, ok := rows[key]
		if !ok {
			t.Fatalf("missing cell %s", key)
		}
		for _, k := range row.AlertKinds {
			if !baseKinds[k] {
				t.Errorf("%s: loss introduced new false-positive alert kind %v", key, k)
			}
		}
	}

	// Detection and localization hold through the swept loss levels.
	for _, key := range []string{"spine-degrade@0", "spine-degrade@0.05"} {
		row, ok := rows[key]
		if !ok {
			t.Fatalf("missing cell %s", key)
		}
		if row.Score.Windows == 0 {
			t.Errorf("%s: no window was scored (detectors never fired during the fault)", key)
			continue
		}
		if got := row.Score.Top1Rate(); got < 0.8 {
			t.Errorf("%s: fused top-1 rate %.0f%% < 80%% over %d scored windows", key, 100*got, row.Score.Windows)
		}
	}

	// The mirror blackout must be flagged by coverage, silently to the
	// alerting surface.
	blk, ok := rows["leaf-blackout@0"]
	if !ok {
		t.Fatal("missing blackout cell")
	}
	if blk.Degraded < 2 {
		t.Errorf("blackout degraded windows = %d, want >= 2", blk.Degraded)
	}
	if blk.Blacked == 0 {
		t.Error("blackout cell dropped no records")
	}

	if !strings.Contains(res.Report(), "collector loss") {
		t.Error("report missing the loss table")
	}
	checkGolden(t, "loss_short.golden", res.Report())
}

// TestCollectorLossFragmentedRanks runs the full grid's spine-degrade cell
// at 0% loss, seed 1 (cell index 3). Before the fault, reconstruction
// splits the steps of two servers' twelve ranks into near-zero fragments;
// judged against those fragments, each rank's whole steps read as slow,
// and their evidence ranked a healthy spine above the degraded one in the
// cell's first scored window (top-1 50%). Cross-step skips such ranks, so
// the degraded spine leads every scored window.
func TestCollectorLossFragmentedRanks(t *testing.T) {
	spec := lossCellSpec{scenario: "spine-degrade", single: true, faults: lossSpineDegrade}
	row, err := lossCell(context.Background(), spec, 3, Options{Seed: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if row.Score.Windows == 0 {
		t.Fatal("no window was scored")
	}
	if got := row.Score.Top1Rate(); got < 1 {
		t.Errorf("fused top-1 rate %.0f%% over %d scored windows, want 100%%", 100*got, row.Score.Windows)
	}
}

func trimFloat(f float64) string {
	switch f {
	case 0:
		return "0"
	case 0.02:
		return "0.02"
	case 0.05:
		return "0.05"
	}
	return "?"
}
