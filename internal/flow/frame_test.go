package flow

import (
	"reflect"
	"sort"
	"testing"
	"time"
)

func frameRecords(seed int64, n int) []Record { return randomRecords(seed, n) }

func TestFrameRecordsByStartMatchesSortByStart(t *testing.T) {
	records := frameRecords(13, 500)
	want := make([]Record, len(records))
	copy(want, records)
	SortByStart(want)

	got := NewFrame(records).RecordsByStart()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("RecordsByStart diverges from SortByStart over the same records")
	}
}

func TestFrameBuildOrderInvariant(t *testing.T) {
	records := frameRecords(17, 300)
	reversed := make([]Record, len(records))
	for i, r := range records {
		reversed[len(records)-1-i] = r
	}
	a := NewFrame(records)
	b := NewFrame(reversed)
	if !reflect.DeepEqual(a.RecordsByStart(), b.RecordsByStart()) {
		t.Error("frame contents depend on input order")
	}
	if !reflect.DeepEqual(a.Pairs(), b.Pairs()) {
		t.Error("pair index depends on input order")
	}
}

func TestFramePairIndex(t *testing.T) {
	records := frameRecords(19, 400)
	f := NewFrame(records)
	if f.Len() != len(records) {
		t.Fatalf("Len = %d, want %d", f.Len(), len(records))
	}
	total := 0
	var prev Pair
	for i := 0; i < f.NumPairs(); i++ {
		p := f.PairAt(i)
		if i > 0 && !(prev.A < p.A || (prev.A == p.A && prev.B < p.B)) {
			t.Fatalf("pairs not ascending at %d: %v then %v", i, prev, p)
		}
		prev = p
		lo, hi := f.PairSpan(i)
		if hi <= lo {
			t.Fatalf("empty span for pair %v", p)
		}
		total += hi - lo
		for r := lo; r < hi; r++ {
			if f.PairOf(r) != p {
				t.Fatalf("row %d in span of %v has pair %v", r, p, f.PairOf(r))
			}
			if r > lo {
				if f.StartNanos(r) < f.StartNanos(r-1) ||
					(f.StartNanos(r) == f.StartNanos(r-1) && f.ID(r) < f.ID(r-1)) {
					t.Fatalf("span of %v not sorted by (start, id) at row %d", p, r)
				}
			}
		}
	}
	if total != f.Len() {
		t.Errorf("pair spans cover %d rows, want %d", total, f.Len())
	}
}

func TestFramePathInterning(t *testing.T) {
	path1 := []SwitchID{1, 5, 2}
	path2 := []SwitchID{1, 6, 2}
	var records []Record
	for i := 0; i < 100; i++ {
		p := path1
		if i%2 == 1 {
			p = path2
		}
		records = append(records, rec(uint64(i+1), time.Duration(i)*time.Millisecond, time.Millisecond, 1, 2, 10, p...))
	}
	f := NewFrame(records)
	if got := f.PathTable().NumPaths(); got != 2 {
		t.Errorf("interned paths = %d, want 2", got)
	}
	for i := 0; i < f.Len(); i++ {
		sw := f.Switches(i)
		if len(sw) != 3 {
			t.Fatalf("row %d switches = %v", i, sw)
		}
	}
	// Empty paths intern as NoPath and materialize as nil.
	f2 := NewFrame([]Record{rec(1, 0, time.Millisecond, 1, 2, 10)})
	if f2.Path(0) != NoPath || f2.Switches(0) != nil {
		t.Errorf("empty path: id=%v switches=%v, want NoPath/nil", f2.Path(0), f2.Switches(0))
	}
}

func TestFrameSelectMatchesFilter(t *testing.T) {
	records := frameRecords(23, 600)
	f := NewFrame(records)
	eps := Endpoints(records)
	if len(eps) < 4 {
		t.Skip("trace too small")
	}
	subset := eps[:len(eps)/2]

	sorted := make([]Record, len(records))
	copy(sorted, records)
	SortByStart(sorted)
	in := make(map[Addr]bool, len(subset))
	for _, a := range subset {
		in[a] = true
	}
	var want []Record
	for _, r := range sorted {
		if in[r.Src] && in[r.Dst] {
			want = append(want, r)
		}
	}

	v := f.Select(subset)
	got := v.Records()
	if len(want) == 0 {
		if v.Len() != 0 {
			t.Fatalf("Select returned %d rows, want 0", v.Len())
		}
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("Select(%d endpoints) = %d records, diverges from filtered slice (%d records)",
			len(subset), len(got), len(want))
	}
}

func TestFrameSelectManyMatchesSelect(t *testing.T) {
	records := frameRecords(29, 600)
	f := NewFrame(records)
	eps := f.Endpoints()
	if len(eps) < 6 {
		t.Skip("trace too small")
	}
	third := len(eps) / 3
	groups := [][]Addr{eps[:third], eps[third : 2*third], eps[2*third:]}
	views := f.SelectMany(groups)
	if len(views) != len(groups) {
		t.Fatalf("views = %d, want %d", len(views), len(groups))
	}
	for g, group := range groups {
		want := f.Select(group).Records()
		got := views[g].Records()
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("group %d: SelectMany diverges from Select", g)
		}
	}
}

func TestFrameAllView(t *testing.T) {
	records := frameRecords(31, 200)
	f := NewFrame(records)
	v := f.All()
	if v.Len() != f.Len() || v.NumPairs() != f.NumPairs() {
		t.Fatalf("All view size %d/%d pairs, want %d/%d", v.Len(), v.NumPairs(), f.Len(), f.NumPairs())
	}
	if !reflect.DeepEqual(v.Records(), f.RecordsByStart()) {
		t.Error("All view records diverge from RecordsByStart")
	}
	rows, rowPairs := v.Rows(), v.RowPairs()
	for k := range rows {
		if v.PairAt(int(rowPairs[k])) != f.PairOf(int(rows[k])) {
			t.Fatalf("row %d: RowPairs inconsistent with PairOf", k)
		}
	}
	if !reflect.DeepEqual(f.Endpoints(), Endpoints(records)) {
		t.Error("frame Endpoints diverge from record-slice Endpoints")
	}
	if !reflect.DeepEqual(v.Endpoints(), Endpoints(records)) {
		t.Error("view Endpoints diverge from record-slice Endpoints")
	}
}

func TestFrameGbpsMatchesRecord(t *testing.T) {
	records := frameRecords(37, 300)
	f := NewFrame(records)
	for i := 0; i < f.Len(); i++ {
		if got, want := f.Gbps(i), f.Record(i).Gbps(); got != want {
			t.Fatalf("row %d: Gbps = %v, Record.Gbps = %v", i, got, want)
		}
	}
}

func TestFrameBuilderReusableAfterBuild(t *testing.T) {
	b := NewFrameBuilder()
	b.AppendRecord(rec(1, 0, time.Millisecond, 1, 2, 10, 3, 4))
	f1 := b.Build()
	b.AppendRecord(rec(2, time.Millisecond, time.Millisecond, 1, 2, 20, 3, 4))
	f2 := b.Build()
	if f1.Len() != 1 || f2.Len() != 2 {
		t.Fatalf("frame lengths = %d, %d; want 1, 2", f1.Len(), f2.Len())
	}
	if f2.PathTable().NumPaths() != 1 {
		t.Errorf("paths = %d, want 1 (same path interned once)", f2.PathTable().NumPaths())
	}
	// The first frame must be unaffected by later appends.
	if got := f1.Record(0); got.ID != 1 || got.Bytes != 10 {
		t.Errorf("frame 1 record changed after later appends: %+v", got)
	}
}

func TestEmptyFrame(t *testing.T) {
	f := NewFrame(nil)
	if f.Len() != 0 || f.NumPairs() != 0 {
		t.Fatalf("empty frame has %d rows, %d pairs", f.Len(), f.NumPairs())
	}
	if got := f.RecordsByStart(); len(got) != 0 {
		t.Errorf("empty frame materialized %d records", len(got))
	}
	v := f.All()
	if v.Len() != 0 || len(v.Records()) != 0 {
		t.Error("empty frame view not empty")
	}
	var zero View
	if zero.Len() != 0 || zero.NumPairs() != 0 {
		t.Error("zero View not empty")
	}
}

// Endpoints returns the distinct endpoint addresses appearing in records,
// sorted ascending: the record-slice oracle for Frame.Endpoints and
// View.Endpoints.
func Endpoints(records []Record) []Addr {
	seen := make(map[Addr]struct{}, len(records)*2)
	for _, r := range records {
		seen[r.Src] = struct{}{}
		seen[r.Dst] = struct{}{}
	}
	out := make([]Addr, 0, len(seen))
	for a := range seen {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
