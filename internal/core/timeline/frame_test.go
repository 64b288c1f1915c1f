package timeline

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/bocd"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// multiJob returns three jobTrace jobs of different shapes on disjoint
// endpoints, k*10 up, delayed k*3ms so that their flows interleave, with
// each job's endpoint group and the union of their pair types.
func multiJob() (jobs [][]flow.Record, groups [][]flow.Addr, types map[flow.Pair]parallel.Type) {
	types = make(map[flow.Pair]parallel.Type)
	shapes := []struct {
		steps   int
		gap, dp time.Duration
	}{
		{8, time.Second, 100 * time.Millisecond},
		{6, 1500 * time.Millisecond, 200 * time.Millisecond},
		{10, 700 * time.Millisecond, 50 * time.Millisecond},
	}
	for k, sh := range shapes {
		recs, tps := jobTrace(sh.steps, sh.gap, sh.dp)
		off := flow.Addr(10 * k)
		for i := range recs {
			recs[i].ID += uint64(k) * 1_000_000
			recs[i].Src += off
			recs[i].Dst += off
			recs[i].Start = recs[i].Start.Add(time.Duration(k) * 3 * time.Millisecond)
		}
		for p, typ := range tps {
			types[flow.MakePair(p.A+off, p.B+off)] = typ
		}
		jobs = append(jobs, recs)
		groups = append(groups, flow.NewFrame(recs).Endpoints())
	}
	return jobs, groups, types
}

func TestReconstructViewMatchesReconstruct(t *testing.T) {
	check := func(name string, want, got map[flow.Addr]*Timeline) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: ranks = %d, want %d", name, len(got), len(want))
		}
		for rank, wtl := range want {
			gtl, ok := got[rank]
			if !ok {
				t.Fatalf("%s: rank %v missing from view reconstruction", name, rank)
			}
			if !reflect.DeepEqual(wtl, gtl) {
				t.Errorf("%s: rank %v: view timeline diverges:\n got %+v\nwant %+v", name, rank, gtl, wtl)
			}
		}
	}
	records, types := jobTrace(8, time.Second, 100*time.Millisecond)
	check("whole frame", Reconstruct(records, types, Config{}),
		ReconstructView(flow.NewFrame(records).All(), types, Config{}))

	// Every job view of a multi-job frame against Reconstruct on that job's
	// sorted records alone.
	jobs, groups, types := multiJob()
	var all []flow.Record
	for _, recs := range jobs {
		all = append(all, recs...)
	}
	for i, v := range flow.NewFrame(all).SelectMany(groups) {
		if v.Len() != len(jobs[i]) {
			t.Fatalf("job %d: view holds %d rows, want %d", i, v.Len(), len(jobs[i]))
		}
		recs := append([]flow.Record(nil), jobs[i]...)
		flow.SortByStart(recs)
		check(fmt.Sprintf("job %d", i), Reconstruct(recs, types, Config{}), ReconstructView(v, types, Config{}))
	}
}

func TestReconstructViewSparseDP(t *testing.T) {
	// Below minDPFlows no steps are reconstructed, matching the record
	// path; at it, both paths reconstruct the same steps.
	records, types := sparseDP()
	want := Reconstruct(records, types, Config{})
	got := ReconstructView(flow.NewFrame(records).All(), types, Config{})
	if !reflect.DeepEqual(want, got) {
		t.Error("sparse-DP view reconstruction diverges from record path")
	}
}

// ringTrace builds a job whose ranks 1..n form one DP ring: every step, each
// pair of ring neighbours exchanges a burst of flows of two sizes. Every
// rank then has two DP pairs, so none of them is a single pair's sequence.
func ringTrace(n, nSteps int, stepGap, dpLen time.Duration) []flow.Record {
	var records []flow.Record
	for s := 0; s < nSteps; s++ {
		dpStart := epoch.Add(time.Duration(s)*stepGap + stepGap - dpLen)
		for m := 0; m < n; m++ {
			src, dst := flow.Addr(1+m), flow.Addr(1+(m+1)%n)
			for i := 0; i < 4; i++ {
				size := int64(1 << 22)
				if i%2 == 1 {
					size = 1 << 20
				}
				records = append(records, flow.Record{
					ID:       uint64(len(records) + 1),
					Start:    dpStart.Add(time.Duration(4*m+i) * dpLen / time.Duration(8*n)),
					Duration: dpLen / time.Duration(8*n),
					Src:      src, Dst: dst, Bytes: size,
				})
			}
		}
	}
	flow.SortByStart(records)
	return records
}

// wholeWindow returns cls with every pair's segments replaced by a single
// segment over the pair's flows: a wrong split for every pair the splitter
// divided into steps.
func wholeWindow(cls parallel.Classification) parallel.Classification {
	bad := cls
	bad.Segments = make(map[flow.Pair][]bocd.Segment, len(cls.Segments))
	for p, segs := range cls.Segments {
		bad.Segments[p] = []bocd.Segment{{Lo: 0, Hi: segs[len(segs)-1].Hi}}
	}
	return bad
}

// TestReconstructClassifiedMatchesReconstruct pins the segment reuse to the
// record-slice oracle, which always splits: over the real classification
// of each view, ReconstructClassified must equal Reconstruct. Which ranks
// took the reuse is read back by corrupting the classification's segments:
// exactly those ranks' timelines must change.
func TestReconstructClassifiedMatchesReconstruct(t *testing.T) {
	pairJob, _ := jobTrace(8, time.Second, 100*time.Millisecond)
	jobs, groups, _ := multiJob()
	var all []flow.Record
	for _, recs := range jobs {
		all = append(all, recs...)
	}
	type job struct {
		name    string
		v       flow.View
		records []flow.Record // sorted by start
		reused  []flow.Addr   // ranks whose DP flows are one pair's flows
	}
	whole := func(name string, records []flow.Record, reused ...flow.Addr) job {
		return job{name, flow.NewFrame(records).All(), records, reused}
	}
	cases := []job{
		// Rank 2's DP flows are pair (1,2); rank 1 has the same DP pair
		// plus the PP pair (0,1), whose flows its steps still count.
		whole("two-member DP pair", pairJob, 1, 2),
		whole("DP ring of 3", ringTrace(3, 8, time.Second, 100*time.Millisecond)),
		whole("DP ring of 4", ringTrace(4, 6, 1500*time.Millisecond, 200*time.Millisecond)),
	}
	for i, v := range flow.NewFrame(all).SelectMany(groups) {
		recs := append([]flow.Record(nil), jobs[i]...)
		flow.SortByStart(recs)
		off := flow.Addr(10 * i)
		cases = append(cases, job{fmt.Sprintf("multi-job view %d", i), v, recs, []flow.Addr{1 + off, 2 + off}})
	}
	for _, tc := range cases {
		cls := parallel.IdentifyView(tc.v, parallel.Config{})
		dpPairs := 0
		for p, typ := range cls.Types {
			if typ != parallel.TypeDP {
				continue
			}
			dpPairs++
			// A one-segment DP pair would make the corruption below a no-op.
			if len(cls.Segments[p]) < 2 {
				t.Fatalf("%s: DP pair %v split into %d segments, want several", tc.name, p, len(cls.Segments[p]))
			}
		}
		if dpPairs == 0 {
			t.Fatalf("%s: no DP pair identified", tc.name)
		}
		want := Reconstruct(tc.records, cls.Types, Config{})
		got := ReconstructClassified(tc.v, cls, Config{})
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s: ReconstructClassified diverges from Reconstruct", tc.name)
		}
		bad := ReconstructClassified(tc.v, wholeWindow(cls), Config{})
		for rank, wtl := range want {
			changed, reused := !reflect.DeepEqual(wtl, bad[rank]), slices.Contains(tc.reused, rank)
			if changed != reused {
				t.Errorf("%s: rank %v: timeline changed with wrong segments = %v, want %v", tc.name, rank, changed, reused)
			}
		}
	}

	// Rank 1 of the pair job counts its 4 PP flows per step on top of the
	// 6 DP flows rank 2 sees.
	cls := parallel.IdentifyView(cases[0].v, parallel.Config{})
	tls := ReconstructClassified(cases[0].v, cls, Config{})
	r1, r2 := tls[1].Steps, tls[2].Steps
	if len(r1) != 8 || len(r2) != 8 {
		t.Fatalf("steps = %d and %d, want 8 each", len(r1), len(r2))
	}
	for i := range r1 {
		if r1[i].Events != r2[i].Events+4 {
			t.Errorf("step %d: rank 1 counts %d events, want rank 2's %d + 4 PP", i, r1[i].Events, r2[i].Events)
		}
	}
}

// TestReconstructClassifiedUsesPairSegments passes segments that are
// deliberately not the splitter's: both ranks of the two-member DP pair
// must report exactly those steps, which proves the reconstruction reads
// the classification's segments rather than splitting again.
func TestReconstructClassifiedUsesPairSegments(t *testing.T) {
	records, _ := jobTrace(8, time.Second, 100*time.Millisecond)
	v := flow.NewFrame(records).All()
	cls := parallel.IdentifyView(v, parallel.Config{})
	dp := flow.MakePair(1, 2)
	n := cls.Segments[dp][len(cls.Segments[dp])-1].Hi
	var dpRecs []flow.Record
	for _, r := range records {
		if r.Pair() == dp {
			dpRecs = append(dpRecs, r)
		}
	}
	if n != len(dpRecs) {
		t.Fatalf("pair segments cover %d flows, want %d", n, len(dpRecs))
	}
	// Split the 8 DP bursts of 6 flows after the third flow instead.
	cls.Segments = map[flow.Pair][]bocd.Segment{dp: {{Lo: 0, Hi: 3}, {Lo: 3, Hi: n}}}
	tls := ReconstructClassified(v, cls, Config{})
	for _, rank := range []flow.Addr{1, 2} {
		steps := tls[rank].Steps
		if len(steps) != 2 {
			t.Fatalf("rank %v: %d steps, want the 2 passed in", rank, len(steps))
		}
		if !steps[1].DPStart.Equal(dpRecs[3].Start) {
			t.Errorf("rank %v: step 1 DP starts at %v, want the fourth DP flow's %v", rank, steps[1].DPStart, dpRecs[3].Start)
		}
	}
	if len(tls[0].Steps) != 0 {
		t.Errorf("rank 0 has no DP flows but got %d steps", len(tls[0].Steps))
	}
}
