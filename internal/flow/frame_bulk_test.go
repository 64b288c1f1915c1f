package flow

import (
	"bytes"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// frameBytes serializes f; byte equality is the strongest frame-identity
// check (columns, path table, canonical order — everything WriteTo covers).
func frameBytes(t *testing.T, f *Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// bulkRecords returns records with heavy path sharing and exact duplicates
// — duplicates exercise the row-index tie break of the row order.
func bulkRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	records := randomRecords(seed, n)
	for i := range records {
		if rng.Intn(10) == 0 && i > 0 {
			records[i] = records[i-1] // exact duplicate row
		}
	}
	return records
}

// TestBuildCanonicalAcrossIngestOrder checks the canonicalization Build now
// guarantees: the same record multiset gives byte-identical frames no
// matter the append (and therefore intern) order — the property bulk
// ingest's one-shot table remap relies on.
func TestBuildCanonicalAcrossIngestOrder(t *testing.T) {
	records := bulkRecords(3, 700)
	want := frameBytes(t, NewFrame(records))
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 5; trial++ {
		shuffled := make([]Record, len(records))
		copy(shuffled, records)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := frameBytes(t, NewFrame(shuffled)); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: frame bytes depend on append order", trial)
		}
	}
}

// appendFrame bulk-appends every row of f: one table remap plus wholesale
// column appends — no per-row path re-interning, no Record structs.
func appendFrame(b *FrameBuilder, f *Frame) {
	b.Grow(f.Len())
	b.AppendFrameRows(f, b.InternTable(f.PathTable()), nil)
}

func TestAppendFrameMatchesAppendRecord(t *testing.T) {
	records := bulkRecords(11, 900)
	src := NewFrame(records)

	ref := NewFrameBuilder()
	for _, r := range src.RecordsByStart() {
		ref.AppendRecord(r)
	}
	want := frameBytes(t, ref.Build())

	bulk := NewFrameBuilder()
	appendFrame(bulk, src)
	if got := frameBytes(t, bulk.Build()); !bytes.Equal(got, want) {
		t.Fatal("AppendFrame frame diverges from per-record AppendRecord frame")
	}

	// Mixing bulk and per-record appends into one builder must also land
	// on the canonical frame.
	extra := bulkRecords(12, 50)
	mixed := NewFrameBuilder()
	for _, r := range extra[:25] {
		mixed.AppendRecord(r)
	}
	appendFrame(mixed, src)
	for _, r := range extra[25:] {
		mixed.AppendRecord(r)
	}
	all := append(append([]Record{}, records...), extra...)
	if got, want := frameBytes(t, mixed.Build()), frameBytes(t, NewFrame(all)); !bytes.Equal(got, want) {
		t.Fatal("mixed bulk/per-record ingest diverges from the canonical frame")
	}
}

func TestAppendFrameRowsSubset(t *testing.T) {
	records := bulkRecords(17, 400)
	src := NewFrame(records)
	rows := make([]int32, 0, src.Len()/2)
	var picked []Record
	for i := 0; i < src.Len(); i += 2 {
		rows = append(rows, int32(i))
		picked = append(picked, src.Record(i))
	}
	b := NewFrameBuilder()
	b.Grow(len(rows))
	b.AppendFrameRows(src, b.InternTable(src.PathTable()), rows)
	if got, want := frameBytes(t, b.Build()), frameBytes(t, NewFrame(picked)); !bytes.Equal(got, want) {
		t.Fatal("row-subset bulk append diverges from building the picked records")
	}
}

// TestInternTablePreSizesTable is the zero-realloc gate for bulk ingest:
// GrowTable must reserve the full table budget up front, so the interning
// appends never grow the offs/switches backing arrays.
func TestInternTablePreSizesTable(t *testing.T) {
	src := NewFrame(bulkRecords(23, 600))
	tbl := src.PathTable()
	if tbl.NumPaths() == 0 {
		t.Fatal("test frame interned no paths")
	}

	b := NewFrameBuilder()
	b.GrowTable(tbl.NumPaths(), len(tbl.switches))
	capOffs, capSwitches := cap(b.table.offs), cap(b.table.switches)
	remap := b.InternTable(tbl)
	if cap(b.table.offs) != capOffs || cap(b.table.switches) != capSwitches {
		t.Fatalf("InternTable reallocated the table: offs cap %d->%d, switches cap %d->%d",
			capOffs, cap(b.table.offs), capSwitches, cap(b.table.switches))
	}
	// Into an empty builder the copy is wholesale: nil remap = identity.
	if remap != nil {
		t.Fatalf("InternTable into an empty builder returned remap %v, want nil (identity)", remap)
	}
	if b.table.NumPaths() != tbl.NumPaths() {
		t.Fatalf("adopted %d of %d paths", b.table.NumPaths(), tbl.NumPaths())
	}
	for p := 0; p < tbl.NumPaths(); p++ {
		if !reflect.DeepEqual(b.Path(PathID(p)), tbl.Path(PathID(p))) {
			t.Fatalf("adopted path %d differs from the source", p)
		}
	}
	// Re-interning the same table is all duplicates: no table growth, and
	// the slow path (non-empty builder) returns the identity explicitly.
	lenOffs, lenSwitches := len(b.table.offs), len(b.table.switches)
	remap2 := b.InternTable(tbl)
	if len(b.table.offs) != lenOffs || len(b.table.switches) != lenSwitches {
		t.Fatal("duplicate InternTable grew the table")
	}
	if len(remap2) != tbl.NumPaths() {
		t.Fatalf("remap covers %d of %d paths", len(remap2), tbl.NumPaths())
	}
	for old, id := range remap2 {
		if id != PathID(old) {
			t.Fatalf("re-interning the same table gave remap[%d]=%d, want identity", old, id)
		}
	}
	remap = remap2

	// Row columns: Grow + AppendFrameRows must not reallocate either.
	b.Grow(src.Len())
	capIDs := cap(b.ids)
	b.AppendFrameRows(src, remap, nil)
	if cap(b.ids) != capIDs {
		t.Fatalf("AppendFrameRows reallocated row columns: cap %d->%d", capIDs, cap(b.ids))
	}
}

// TestGrowAmortizesReallocation pins Grow's growth policy: a window builder
// is grown once per pushed frame, and m successive Grow + AppendFrameRows
// rounds must reallocate each column O(log m) times, not once per round
// (which made the copying quadratic in the number of frames per window).
func TestGrowAmortizesReallocation(t *testing.T) {
	const m = 256
	src := NewFrame(bulkRecords(31, 100))
	b := NewFrameBuilder()
	caps := func() [7]int {
		return [7]int{cap(b.ids), cap(b.starts), cap(b.durs), cap(b.srcs), cap(b.dsts), cap(b.nbytes), cap(b.paths)}
	}
	var reallocs [7]int
	last := caps()
	for range m {
		b.Grow(src.Len())
		now := caps()
		for c := range now {
			if now[c] != last[c] {
				reallocs[c]++
			}
		}
		last = now
		remap := b.InternTable(src.PathTable())
		b.AppendFrameRows(src, remap, nil)
		if caps() != now {
			t.Fatal("AppendFrameRows reallocated a column after Grow")
		}
	}
	if b.Len() != m*src.Len() {
		t.Fatalf("builder holds %d rows, want %d", b.Len(), m*src.Len())
	}
	for i, id := range b.ids {
		if id != src.ids[i%src.Len()] {
			t.Fatalf("row %d: id %d, want %d", i, id, src.ids[i%src.Len()])
		}
	}
	// append's policy doubles small slices and grows large ones by about
	// 1.25x: ~20 reallocations here, against m = 256 at the exact need.
	limit := 4 * bits.Len(m)
	for c, n := range reallocs {
		if n > limit {
			t.Errorf("column %d reallocated %d times over %d rounds, want <= %d", c, n, m, limit)
		}
	}
}

func TestMinMaxStartNanos(t *testing.T) {
	records := bulkRecords(29, 300)
	f := NewFrame(records)
	min, max := records[0].Start.UnixNano(), records[0].Start.UnixNano()
	for _, r := range records[1:] {
		if t := r.Start.UnixNano(); t < min {
			min = t
		} else if t > max {
			max = t
		}
	}
	if f.MinStartNanos() != min || f.MaxStartNanos() != max {
		t.Fatalf("MinStartNanos/MaxStartNanos = %d/%d, want %d/%d",
			f.MinStartNanos(), f.MaxStartNanos(), min, max)
	}
}
