package parallel

import (
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

var epoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// stepFlows appends, for each of nSteps bursts spaced stepGap apart, one
// flow per entry of sizes (spaced 2ms apart within the burst).
func stepFlows(records []flow.Record, a, b flow.Addr, nSteps int, stepGap time.Duration, sizes []int64) []flow.Record {
	id := uint64(len(records)) * 1000
	for s := 0; s < nSteps; s++ {
		base := epoch.Add(time.Duration(s) * stepGap)
		for i, size := range sizes {
			id++
			records = append(records, flow.Record{
				ID:       id,
				Start:    base.Add(time.Duration(i) * 2 * time.Millisecond),
				Duration: time.Millisecond,
				Src:      a,
				Dst:      b,
				Bytes:    size,
			})
		}
	}
	return records
}

func sorted(records []flow.Record) []flow.Record {
	flow.SortByStart(records)
	return records
}

func TestClassifyPPConstantSizes(t *testing.T) {
	records := stepFlows(nil, 1, 2, 10, time.Second, []int64{1 << 20, 1 << 20, 1 << 20})
	cls := Identify(sorted(records), Config{})
	if got := cls.Types[flow.MakePair(1, 2)]; got != TypePP {
		t.Errorf("constant-size pair classified %v, want PP", got)
	}
}

func TestClassifyDPMultipleSizes(t *testing.T) {
	records := stepFlows(nil, 1, 2, 10, time.Second, []int64{1 << 20, 1 << 20, 1 << 18})
	cls := Identify(sorted(records), Config{})
	if got := cls.Types[flow.MakePair(1, 2)]; got != TypeDP {
		t.Errorf("multi-size pair classified %v, want DP", got)
	}
	if steps := cls.StepsPerPair[flow.MakePair(1, 2)]; steps < 8 || steps > 12 {
		t.Errorf("steps per pair = %d, want ≈ 10", steps)
	}
}

func TestRefinementRepairsNoisyDPPair(t *testing.T) {
	// Ring 1-2-3-1: pairs (1,2) and (2,3) look DP; (1,3) lost its small
	// chunks to collection noise and looks PP. Transitivity must repair it.
	var records []flow.Record
	records = stepFlows(records, 1, 2, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 2, 3, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 1, 3, 8, time.Second, []int64{1 << 20, 1 << 20})

	noRefine := Identify(sorted(records), Config{DisableRefinement: true})
	if got := noRefine.Types[flow.MakePair(1, 3)]; got != TypePP {
		t.Fatalf("w/o refinement pair (1,3) = %v, want PP (the injected error)", got)
	}
	refined := Identify(sorted(records), Config{})
	if got := refined.Types[flow.MakePair(1, 3)]; got != TypeDP {
		t.Errorf("refined pair (1,3) = %v, want DP", got)
	}
}

func TestRefinementDoesNotCorruptPPAcrossGroups(t *testing.T) {
	// Two DP groups {1,2} and {3,4} joined by a true PP pair (2,3):
	// 2 and 3 are in different components, so (2,3) must stay PP.
	var records []flow.Record
	records = stepFlows(records, 1, 2, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 3, 4, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 2, 3, 8, time.Second, []int64{1 << 16})
	cls := Identify(sorted(records), Config{})
	if got := cls.Types[flow.MakePair(2, 3)]; got != TypePP {
		t.Errorf("true PP pair refined to %v", got)
	}
	if len(cls.DPGroups) != 2 {
		t.Errorf("DP groups = %d, want 2", len(cls.DPGroups))
	}
}

func TestDPGroupsSortedAndComplete(t *testing.T) {
	var records []flow.Record
	records = stepFlows(records, 5, 6, 6, time.Second, []int64{100, 200})
	records = stepFlows(records, 6, 7, 6, time.Second, []int64{100, 200})
	records = stepFlows(records, 1, 2, 6, time.Second, []int64{100, 200})
	cls := Identify(sorted(records), Config{})
	if len(cls.DPGroups) != 2 {
		t.Fatalf("DP groups = %d, want 2", len(cls.DPGroups))
	}
	if cls.DPGroups[0][0] != 1 {
		t.Errorf("groups not sorted: first group starts at %v", cls.DPGroups[0][0])
	}
	if len(cls.DPGroups[1]) != 3 {
		t.Errorf("second group size = %d, want 3", len(cls.DPGroups[1]))
	}
}

// sparsePairs holds pair (1,2) with one flow, below minFlows (2), and pair
// (3,4) with two.
func sparsePairs() []flow.Record {
	return []flow.Record{
		{ID: 1, Start: epoch, Src: 1, Dst: 2, Bytes: 100},
		{ID: 2, Start: epoch, Src: 3, Dst: 4, Bytes: 100},
		{ID: 3, Start: epoch.Add(time.Second), Src: 3, Dst: 4, Bytes: 100},
	}
}

func TestMinFlowsSkipsSparsePairs(t *testing.T) {
	cls := Identify(sorted(sparsePairs()), Config{})
	if _, ok := cls.Types[flow.MakePair(1, 2)]; ok {
		t.Error("pair below minFlows should not be classified")
	}
	if _, ok := cls.Types[flow.MakePair(3, 4)]; !ok {
		t.Error("pair at minFlows should be classified")
	}
}

func TestTypeString(t *testing.T) {
	if TypePP.String() != "PP" || TypeDP.String() != "DP" || Type(9).String() == "" {
		t.Error("Type.String labels wrong")
	}
}

func TestIdentifyEmptyInput(t *testing.T) {
	cls := Identify(nil, Config{})
	if len(cls.Types) != 0 || len(cls.DPGroups) != 0 {
		t.Error("empty input should produce empty classification")
	}
}

func BenchmarkIdentify(b *testing.B) {
	var records []flow.Record
	for pair := 0; pair < 32; pair++ {
		a := flow.Addr(pair * 2)
		c := flow.Addr(pair*2 + 1)
		sizes := []int64{1 << 20, 1 << 18}
		if pair%2 == 0 {
			sizes = []int64{1 << 20}
		}
		records = stepFlows(records, a, c, 10, time.Second, sizes)
	}
	v := flow.NewFrame(records).All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		IdentifyView(v, Config{})
	}
}
