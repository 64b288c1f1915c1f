package parallel

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// mixedJob builds one job with a DP ring 1-2-3-1, a PP pair (3,4), and a
// too-sparse pair (4,5) that stays unclassified.
func mixedJob() []flow.Record {
	var records []flow.Record
	records = stepFlows(records, 1, 2, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 2, 3, 8, time.Second, []int64{1 << 20, 1 << 18})
	records = stepFlows(records, 1, 3, 8, time.Second, []int64{1 << 20, 1 << 20})
	records = stepFlows(records, 3, 4, 8, time.Second, []int64{1 << 19})
	records = append(records, flow.Record{ID: 999999, Start: epoch, Src: 4, Dst: 5, Bytes: 7})
	return records
}

// shiftJob moves a job onto its own endpoints and ids, k slots up, and
// delays it by k*dt so that several shifted jobs interleave in time.
func shiftJob(records []flow.Record, k int, dt time.Duration) []flow.Record {
	out := make([]flow.Record, len(records))
	for i, r := range records {
		r.ID += uint64(k) * 10_000_000
		r.Src += flow.Addr(10 * k)
		r.Dst += flow.Addr(10 * k)
		r.Start = r.Start.Add(time.Duration(k) * dt)
		out[i] = r
	}
	return out
}

// multiJob returns three jobs on disjoint endpoints whose flows interleave
// in time, with the endpoint group of each.
func multiJob() (jobs [][]flow.Record, groups [][]flow.Addr) {
	jobs = [][]flow.Record{
		mixedJob(),
		shiftJob(mixedJob(), 1, 500*time.Microsecond),
		shiftJob(stepFlows(nil, 1, 2, 12, 700*time.Millisecond, []int64{1 << 20, 1 << 16, 1 << 18}), 2, time.Millisecond),
	}
	for _, recs := range jobs {
		groups = append(groups, flow.NewFrame(recs).Endpoints())
	}
	return jobs, groups
}

func TestIdentifyViewMatchesIdentify(t *testing.T) {
	records := mixedJob()
	jobs, groups := multiJob()
	var all []flow.Record
	for _, recs := range jobs {
		all = append(all, recs...)
	}
	views := flow.NewFrame(all).SelectMany(groups)
	for _, cfg := range []Config{{}, {DisableRefinement: true}} {
		for _, recs := range [][]flow.Record{records, sparsePairs()} {
			want := Identify(sorted(recs), cfg)
			got := IdentifyView(flow.NewFrame(recs).All(), cfg)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("cfg %+v: IdentifyView diverges from Identify:\n got %+v\nwant %+v", cfg, got, want)
			}
		}
		// Every job view of a multi-job frame against Identify on that
		// job's sorted records alone.
		for i, v := range views {
			if v.Len() != len(jobs[i]) {
				t.Fatalf("job %d: view holds %d rows, want %d", i, v.Len(), len(jobs[i]))
			}
			want := Identify(sorted(jobs[i]), cfg)
			if got := IdentifyView(v, cfg); !reflect.DeepEqual(want, got) {
				t.Errorf("cfg %+v, job %d: IdentifyView diverges from Identify:\n got %+v\nwant %+v", cfg, i, got, want)
			}
		}
	}
}

func TestIdentifyViewEmpty(t *testing.T) {
	got := IdentifyView(flow.View{}, Config{})
	if len(got.Types) != 0 || len(got.DPGroups) != 0 {
		t.Errorf("empty view produced %+v", got)
	}
}
