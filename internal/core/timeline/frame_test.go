package timeline

import (
	"fmt"
	"reflect"
	"testing"
	"time"

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
