package diagnose

import (
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// switchTrace builds DP and PP flows over two switch paths across several
// buckets, with sub-second jitter so per-cell float sums exercise order.
func switchTrace() ([]flow.Record, map[flow.Pair]parallel.Type) {
	base := time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)
	var records []flow.Record
	id := uint64(0)
	for i := 0; i < 240; i++ {
		id++
		src, dst := flow.Addr(1+i%3), flow.Addr(4+i%2)
		path := []flow.SwitchID{1, 5, 2}
		if i%2 == 1 {
			path = []flow.SwitchID{1, 6, 2}
		}
		records = append(records, flow.Record{
			ID:       id,
			Start:    base.Add(time.Duration(i) * 700 * time.Millisecond),
			Duration: time.Duration(100+i%7*31) * time.Millisecond,
			Src:      src,
			Dst:      dst,
			Bytes:    int64(1<<20 + i*1000),
			Switches: path,
		})
	}
	flow.SortByStart(records)
	types := make(map[flow.Pair]parallel.Type)
	for _, r := range records {
		p := r.Pair()
		// Alternate DP and PP pairs deterministically.
		if (uint32(p.A)+uint32(p.B))%2 == 0 {
			types[p] = parallel.TypeDP
		} else {
			types[p] = parallel.TypePP
		}
	}
	return records, types
}

// TestAddViewMatchesAdd pins the float summation order contract: the view
// path must fold exactly the same records into exactly the same cells in
// exactly the same order as the record path, so the materialized series —
// including MeanGbps floats — are deep-equal.
func TestAddViewMatchesAdd(t *testing.T) {
	records, types := switchTrace()
	cfg := Config{Bucket: 2 * time.Second}

	ref := NewSeriesAccum(cfg)
	ref.Add(records, types)

	got := NewSeriesAccum(cfg)
	got.AddView(flow.NewFrame(records).All(), types)

	if !reflect.DeepEqual(ref.Series(), got.Series()) {
		t.Error("AddView series diverges from Add series")
	}

	// Every job view of a multi-job frame against Add on that job's sorted
	// records alone. The jobs sit on disjoint endpoints, k*10 up, share
	// the switches and interleave in time.
	var jobs [][]flow.Record
	var groups [][]flow.Addr
	var all []flow.Record
	for k := 0; k < 3; k++ {
		recs, tps := switchTrace()
		off := flow.Addr(10 * k)
		for i := range recs {
			recs[i].ID += uint64(k) * 1_000_000
			recs[i].Src += off
			recs[i].Dst += off
			recs[i].Start = recs[i].Start.Add(time.Duration(k) * 250 * time.Millisecond)
		}
		for p, typ := range tps {
			types[flow.MakePair(p.A+off, p.B+off)] = typ
		}
		jobs = append(jobs, recs)
		groups = append(groups, flow.NewFrame(recs).Endpoints())
		all = append(all, recs...)
	}
	for i, v := range flow.NewFrame(all).SelectMany(groups) {
		if v.Len() != len(jobs[i]) {
			t.Fatalf("job %d: view holds %d rows, want %d", i, v.Len(), len(jobs[i]))
		}
		ref := NewSeriesAccum(cfg)
		ref.Add(jobs[i], types)
		got := NewSeriesAccum(cfg)
		got.AddView(v, types)
		if !reflect.DeepEqual(ref.Series(), got.Series()) {
			t.Errorf("job %d: AddView series diverges from Add series", i)
		}
	}
}

func TestAddViewEmpty(t *testing.T) {
	a := NewSeriesAccum(Config{})
	a.AddView(flow.View{}, nil)
	if len(a.Series()) != 0 {
		t.Error("empty view produced series cells")
	}
}
