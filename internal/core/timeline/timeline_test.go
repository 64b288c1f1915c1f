package timeline

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

var epoch = time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)

// jobTrace builds a synthetic 2-rank job: rank 1 exchanges DP bursts with
// rank 2 every stepGap, plus PP flows from rank 0 to rank 1 between bursts.
func jobTrace(nSteps int, stepGap, dpLen time.Duration) ([]flow.Record, map[flow.Pair]parallel.Type) {
	var records []flow.Record
	id := uint64(0)
	for s := 0; s < nSteps; s++ {
		stepStart := epoch.Add(time.Duration(s) * stepGap)
		// PP flows during the "compute" phase.
		for i := 0; i < 4; i++ {
			id++
			records = append(records, flow.Record{
				ID:       id,
				Start:    stepStart.Add(time.Duration(i+1) * stepGap / 8),
				Duration: 5 * time.Millisecond,
				Src:      0,
				Dst:      1,
				Bytes:    1 << 20,
			})
		}
		// DP burst at the end of the step.
		dpStart := stepStart.Add(stepGap - dpLen)
		for i := 0; i < 6; i++ {
			id++
			size := int64(1 << 22)
			if i%3 == 2 {
				size = 1 << 20
			}
			records = append(records, flow.Record{
				ID:       id,
				Start:    dpStart.Add(time.Duration(i) * dpLen / 8),
				Duration: dpLen / 8,
				Src:      1,
				Dst:      2,
				Bytes:    size,
			})
		}
	}
	flow.SortByStart(records)
	types := map[flow.Pair]parallel.Type{
		flow.MakePair(0, 1): parallel.TypePP,
		flow.MakePair(1, 2): parallel.TypeDP,
	}
	return records, types
}

func TestReconstructStepCount(t *testing.T) {
	records, types := jobTrace(8, time.Second, 100*time.Millisecond)
	tls := Reconstruct(records, types, Config{})
	tl := tls[1]
	if tl == nil {
		t.Fatal("no timeline for rank 1")
	}
	if len(tl.Steps) != 8 {
		t.Fatalf("steps = %d, want 8", len(tl.Steps))
	}
	for i, s := range tl.Steps {
		if s.Index != i {
			t.Errorf("step %d has index %d", i, s.Index)
		}
		if !s.DPEnd.After(s.DPStart) {
			t.Errorf("step %d DP segment empty", i)
		}
		if s.End != s.DPEnd {
			t.Errorf("step %d End %v != DPEnd %v", i, s.End, s.DPEnd)
		}
		if i > 0 && s.Start != tl.Steps[i-1].End {
			t.Errorf("step %d not contiguous", i)
		}
	}
}

func TestReconstructStepEndAccuracy(t *testing.T) {
	const stepGap = time.Second
	const dpLen = 100 * time.Millisecond
	records, types := jobTrace(6, stepGap, dpLen)
	tls := Reconstruct(records, types, Config{})
	tl := tls[1]
	// True step ends: stepStart + stepGap - dpLen + 5/8·dpLen + dpLen/8
	// (last DP flow start + its duration).
	for i, s := range tl.Steps {
		wantEnd := epoch.Add(time.Duration(i)*stepGap + stepGap - dpLen + 5*dpLen/8 + dpLen/8)
		if diff := s.End.Sub(wantEnd); diff < -time.Millisecond || diff > time.Millisecond {
			t.Errorf("step %d end off by %v", i, diff)
		}
	}
}

func TestRankWithoutDPHasNoSteps(t *testing.T) {
	records, types := jobTrace(4, time.Second, 100*time.Millisecond)
	tls := Reconstruct(records, types, Config{})
	tl := tls[0] // rank 0 only has PP traffic
	if tl == nil {
		t.Fatal("rank 0 should still get a timeline")
	}
	if len(tl.Steps) != 0 {
		t.Errorf("rank without DP flows got %d steps", len(tl.Steps))
	}
}

// sparseDP gives rank 1 three DP flows (to rank 2), below minDPFlows (4),
// and rank 3 four (to rank 4).
func sparseDP() ([]flow.Record, map[flow.Pair]parallel.Type) {
	var records []flow.Record
	add := func(src, dst flow.Addr, n int) {
		for i := 0; i < n; i++ {
			records = append(records, flow.Record{
				ID: uint64(len(records) + 1), Start: epoch.Add(time.Duration(i) * time.Second),
				Duration: time.Millisecond, Src: src, Dst: dst, Bytes: 100,
			})
		}
	}
	add(1, 2, 3)
	add(3, 4, 4)
	flow.SortByStart(records)
	types := map[flow.Pair]parallel.Type{
		flow.MakePair(1, 2): parallel.TypeDP,
		flow.MakePair(3, 4): parallel.TypeDP,
	}
	return records, types
}

func TestMinDPFlowsRespected(t *testing.T) {
	records, types := sparseDP()
	tls := Reconstruct(records, types, Config{})
	if len(tls[1].Steps) != 0 {
		t.Error("below minDPFlows should not reconstruct steps")
	}
	if len(tls[3].Steps) == 0 {
		t.Error("at minDPFlows steps should be reconstructed")
	}
}

func TestStepEndsAndAllStepEnds(t *testing.T) {
	records, types := jobTrace(5, time.Second, 100*time.Millisecond)
	tls := Reconstruct(records, types, Config{})
	ends := StepEnds(tls[1], epoch)
	if len(ends) != 5 {
		t.Fatalf("StepEnds = %d entries, want 5", len(ends))
	}
	for i := 1; i < len(ends); i++ {
		if ends[i] <= ends[i-1] {
			t.Fatal("step ends not increasing")
		}
	}
	all := AllStepEnds(tls, epoch)
	if len(all[1]) != 5 {
		t.Errorf("AllStepEnds missing rank 1")
	}
	if _, ok := all[0]; ok {
		t.Error("AllStepEnds should omit ranks without steps")
	}
}

func TestMeanStepDuration(t *testing.T) {
	records, types := jobTrace(6, time.Second, 100*time.Millisecond)
	tls := Reconstruct(records, types, Config{})
	mean := MeanStepDuration(tls[1])
	if mean < 900*time.Millisecond || mean > 1100*time.Millisecond {
		t.Errorf("mean step duration = %v, want ≈ 1s", mean)
	}
	if MeanStepDuration(&Timeline{}) != 0 {
		t.Error("empty timeline should have 0 mean duration")
	}
}

func BenchmarkReconstruct(b *testing.B) {
	records, types := jobTrace(30, time.Second, 100*time.Millisecond)
	v := flow.NewFrame(records).All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReconstructView(v, types, Config{})
	}
}

// TestCountInMatchesLinearScan checks the binary-search count against a
// linear scan, on ascending starts with ties and on intervals that are
// empty, reversed, outside the starts or cut through a run of ties.
func TestCountInMatchesLinearScan(t *testing.T) {
	linear := func(starts []int64, from, to int64) int {
		n := 0
		for _, s := range starts {
			if s >= from && s < to {
				n++
			}
		}
		return n
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		starts := make([]int64, rng.Intn(40))
		for i := range starts {
			// Ten distinct instants at most, so most starts tie.
			starts[i] = int64(rng.Intn(10))
		}
		slices.Sort(starts)
		for trial := 0; trial < 50; trial++ {
			from, to := int64(rng.Intn(14)-2), int64(rng.Intn(14)-2)
			if got, want := countIn(starts, from, to), linear(starts, from, to); got != want {
				t.Fatalf("seed %d: %d starts, [%d, %d): got %d, linear scan %d",
					seed, len(starts), from, to, got, want)
			}
		}
	}
}

// TestStepEventsMatchLinearCount checks, on an eight-rank trace with tied
// starts, that every step's Events equals a linear count of the rank's
// record starts in [Start, End), on both the view and the record path.
func TestStepEventsMatchLinearCount(t *testing.T) {
	const ranks = 8
	rng := rand.New(rand.NewSource(3))
	var records []flow.Record
	types := make(map[flow.Pair]parallel.Type)
	add := func(src, dst flow.Addr, start time.Time, d time.Duration, kind parallel.Type) {
		records = append(records, flow.Record{
			ID: uint64(len(records) + 1), Start: start, Duration: d,
			Src: src, Dst: dst, Bytes: 1 << 20,
		})
		types[flow.MakePair(src, dst)] = kind
	}
	for s := 0; s < 10; s++ {
		step := epoch.Add(time.Duration(s) * time.Second)
		for r := flow.Addr(0); r < ranks; r++ {
			// PP traffic on a fixed 10 ms grid, so starts tie across ranks.
			for i := 0; i < 3; i++ {
				at := step.Add(time.Duration(10*(1+rng.Intn(60))) * time.Millisecond)
				add(r, (r+ranks/2)%ranks, at, 5*time.Millisecond, parallel.TypePP)
			}
			// A DP ring burst closes every step.
			for i := 0; i < 4; i++ {
				at := step.Add(900*time.Millisecond + time.Duration(10*i+int(r))*time.Millisecond)
				add(r, (r+1)%ranks, at, 8*time.Millisecond, parallel.TypeDP)
			}
		}
	}
	flow.SortByStart(records)

	check := func(path string, tls map[flow.Addr]*Timeline) {
		t.Helper()
		if len(tls) != ranks {
			t.Fatalf("%s: %d timelines, want %d", path, len(tls), ranks)
		}
		for rank, tl := range tls {
			if len(tl.Steps) < 5 {
				t.Fatalf("%s: rank %v has %d steps", path, rank, len(tl.Steps))
			}
			for _, st := range tl.Steps {
				want := 0
				for _, r := range records {
					if (r.Src == rank || r.Dst == rank) && !r.Start.Before(st.Start) && r.Start.Before(st.End) {
						want++
					}
				}
				if st.Events != want || want == 0 {
					t.Errorf("%s: rank %v step %d: Events %d, linear count %d", path, rank, st.Index, st.Events, want)
				}
			}
		}
	}
	check("view", ReconstructView(flow.NewFrame(records).All(), types, Config{}))
	check("records", Reconstruct(records, types, Config{}))
}
