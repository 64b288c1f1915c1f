package flow

import (
	"slices"
	"sort"
	"time"
)

// PathID identifies an interned switch path inside a Frame's PathTable.
type PathID int32

// NoPath is the PathID of the empty switch path.
const NoPath PathID = -1

// PathTable stores deduplicated switch paths back to back: path i occupies
// switches[offs[i]:offs[i+1]].
type PathTable struct {
	offs     []int32
	switches []SwitchID
}

// NumPaths returns the number of distinct non-empty paths interned.
func (t *PathTable) NumPaths() int {
	if len(t.offs) == 0 {
		return 0
	}
	return len(t.offs) - 1
}

// Path returns the switches of path id, nil for NoPath. The result aliases
// the table and must not be modified.
func (t *PathTable) Path(id PathID) []SwitchID {
	if id == NoPath {
		return nil
	}
	return t.switches[t.offs[id]:t.offs[id+1]]
}

// FrameBuilder accumulates rows and interned paths for a Frame. The zero
// value is not usable; construct with NewFrameBuilder.
type FrameBuilder struct {
	ids    []uint64
	starts []int64
	durs   []int64
	srcs   []Addr
	dsts   []Addr
	nbytes []int64
	paths  []PathID

	table PathTable
	index map[string]PathID
	key   []byte
}

// NewFrameBuilder returns an empty builder. The intern index is built
// lazily on the first InternPath, so a builder fed purely by bulk table
// copies (InternTable's identity fast path) never pays for it.
func NewFrameBuilder() *FrameBuilder {
	return &FrameBuilder{}
}

// Len returns the number of rows appended so far.
func (b *FrameBuilder) Len() int { return len(b.ids) }

// Grow pre-sizes the builder for n additional rows. Each column grows by
// append's amortized policy, not to the exact need, so a builder grown
// once per pushed frame copies its rows O(log m) times over m pushes
// rather than once per push.
func (b *FrameBuilder) Grow(n int) {
	b.ids = slices.Grow(b.ids, n)
	b.starts = slices.Grow(b.starts, n)
	b.durs = slices.Grow(b.durs, n)
	b.srcs = slices.Grow(b.srcs, n)
	b.dsts = slices.Grow(b.dsts, n)
	b.nbytes = slices.Grow(b.nbytes, n)
	b.paths = slices.Grow(b.paths, n)
}

// InternPath deduplicates a switch path, returning its stable id. The empty
// path interns as NoPath. The input is copied on first sight only.
func (b *FrameBuilder) InternPath(path []SwitchID) PathID {
	if len(path) == 0 {
		return NoPath
	}
	b.key = b.key[:0]
	for _, s := range path {
		b.key = append(b.key,
			byte(s>>56), byte(s>>48), byte(s>>40), byte(s>>32),
			byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	if b.index == nil {
		b.rebuildIndex()
	}
	// map[string] lookup on a []byte key does not allocate; the string is
	// materialized only when the path is new.
	if id, ok := b.index[string(b.key)]; ok {
		return id
	}
	if len(b.table.offs) == 0 {
		b.table.offs = append(b.table.offs, 0)
	}
	id := PathID(len(b.table.offs) - 1)
	b.table.switches = append(b.table.switches, path...)
	b.table.offs = append(b.table.offs, int32(len(b.table.switches)))
	b.index[string(b.key)] = id
	return id
}

// rebuildIndex reconstructs the intern index from the table — needed after
// InternTable's wholesale table copy, which leaves the index stale (nil).
func (b *FrameBuilder) rebuildIndex() {
	np := b.table.NumPaths()
	b.index = make(map[string]PathID, np)
	var key []byte
	for p := 0; p < np; p++ {
		key = key[:0]
		for _, s := range b.table.switches[b.table.offs[p]:b.table.offs[p+1]] {
			key = append(key,
				byte(s>>56), byte(s>>48), byte(s>>40), byte(s>>32),
				byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
		}
		b.index[string(key)] = PathID(p)
	}
}

// Append adds one row with an already-interned path.
func (b *FrameBuilder) Append(id uint64, start time.Time, dur time.Duration, src, dst Addr, bytes int64, path PathID) {
	b.ids = append(b.ids, id)
	b.starts = append(b.starts, start.UnixNano())
	b.durs = append(b.durs, int64(dur))
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
	b.nbytes = append(b.nbytes, bytes)
	b.paths = append(b.paths, path)
}

// AppendRecord adds one row, interning the record's switch path.
func (b *FrameBuilder) AppendRecord(r Record) {
	b.Append(r.ID, r.Start, r.Duration, r.Src, r.Dst, r.Bytes, b.InternPath(r.Switches))
}

// Path returns the switch path interned under id (nil for NoPath). The
// slice aliases the builder's path table and must be treated as read-only.
func (b *FrameBuilder) Path(id PathID) []SwitchID { return b.table.Path(id) }

// Frame is the immutable struct-of-arrays form of one analysis window:
// every Record field lives in its own column, switch paths are interned
// once into a shared PathTable, and rows are sorted by (endpoint pair,
// start, id). Construct with NewFrame or FrameBuilder.Build.
//
// The layout exists because the analysis pipeline re-reads the same window
// many times — once per job, once per pair, once per rank — and the
// row-major []Record form makes every one of those passes a full scan that
// drags each record's heap-allocated Switches slice through the cache. The
// frame gives each access pattern an index instead:
//
//   - the pair index (Pairs/PairSpan) makes "all records of pair p" a
//     contiguous span, already sorted by start time;
//   - views (Select/SelectMany) make "one job's records" a list of pair
//     spans plus a start-ordered row permutation, with no record copying;
//   - the path table makes "the switches of record i" an index lookup into
//     storage shared by every record on the same route.
//
// Determinism discipline: a frame built from the same multiset of records
// is identical regardless of input order (rows are sorted by (pair, start,
// id), and View.Rows orders rows by (start, id) exactly like SortByStart),
// so frame-based consumers iterate records in the same order as the
// classic sorted-[]Record code paths and produce bit-identical results —
// including float accumulation order. Timestamps are normalized to UTC
// nanoseconds; materialized records carry switch slices that alias the
// shared path table and must be treated as read-only.
type Frame struct {
	ids    []uint64
	starts []int64 // UnixNano, UTC
	durs   []int64
	srcs   []Addr
	dsts   []Addr
	nbytes []int64
	paths  []PathID

	table PathTable

	pairs   []Pair  // distinct canonical pairs, ascending
	pairOff []int32 // pair i spans rows [pairOff[i], pairOff[i+1])
	rowPair []int32 // pair index of each row
	byStart []int32 // rows in (start, id) order
}

// NewFrame builds a frame from a record slice. The input is not modified;
// its order does not matter.
func NewFrame(records []Record) *Frame {
	b := NewFrameBuilder()
	b.Grow(len(records))
	for _, r := range records {
		b.AppendRecord(r)
	}
	return b.Build()
}

// Len returns the number of rows.
func (f *Frame) Len() int { return len(f.ids) }

// NumPairs returns the number of distinct endpoint pairs.
func (f *Frame) NumPairs() int { return len(f.pairs) }

// PairAt returns the i-th distinct pair (ascending order).
func (f *Frame) PairAt(i int) Pair { return f.pairs[i] }

// PairSpan returns the row span [lo, hi) of the i-th pair; rows inside a
// span are sorted by (start, id).
func (f *Frame) PairSpan(i int) (lo, hi int) {
	return int(f.pairOff[i]), int(f.pairOff[i+1])
}

// Pairs returns the distinct pairs in ascending order. The result aliases
// the frame and must not be modified.
func (f *Frame) Pairs() []Pair { return f.pairs }

// PairOf returns the canonical pair of row i.
func (f *Frame) PairOf(i int) Pair { return f.pairs[f.rowPair[i]] }

// ID returns the collector id of row i.
func (f *Frame) ID(i int) uint64 { return f.ids[i] }

// Start returns the start time of row i (UTC).
func (f *Frame) Start(i int) time.Time { return time.Unix(0, f.starts[i]).UTC() }

// StartNanos returns the start time of row i as UnixNano.
func (f *Frame) StartNanos(i int) int64 { return f.starts[i] }

// Duration returns the duration of row i.
func (f *Frame) Duration(i int) time.Duration { return time.Duration(f.durs[i]) }

// End returns the end time of row i.
func (f *Frame) End(i int) time.Time { return time.Unix(0, f.starts[i]+f.durs[i]).UTC() }

// Src returns the source endpoint of row i.
func (f *Frame) Src(i int) Addr { return f.srcs[i] }

// Dst returns the destination endpoint of row i.
func (f *Frame) Dst(i int) Addr { return f.dsts[i] }

// Bytes returns the byte count of row i.
func (f *Frame) Bytes(i int) int64 { return f.nbytes[i] }

// Gbps returns the average bandwidth of row i in gigabits per second,
// computed exactly as Record.Gbps.
func (f *Frame) Gbps(i int) float64 {
	d := time.Duration(f.durs[i])
	if d <= 0 {
		return 0
	}
	return float64(f.nbytes[i]) * 8 / d.Seconds() / 1e9
}

// Path returns the interned path id of row i.
func (f *Frame) Path(i int) PathID { return f.paths[i] }

// Switches returns the switch path of row i. The result aliases the shared
// path table and must not be modified; empty paths return nil.
func (f *Frame) Switches(i int) []SwitchID { return f.table.Path(f.paths[i]) }

// PathTable returns the frame's interned path table.
func (f *Frame) PathTable() *PathTable { return &f.table }

// Record materializes row i. The Switches field aliases the shared path
// table and must be treated as read-only.
func (f *Frame) Record(i int) Record {
	return Record{
		ID:       f.ids[i],
		Start:    f.Start(i),
		Duration: time.Duration(f.durs[i]),
		Src:      f.srcs[i],
		Dst:      f.dsts[i],
		Bytes:    f.nbytes[i],
		Switches: f.table.Path(f.paths[i]),
	}
}

// RecordsByStart materializes every row in (start, id) order — the order
// SortByStart produces. Switch slices alias the shared path table.
func (f *Frame) RecordsByStart() []Record {
	out := make([]Record, len(f.byStart))
	for i, r := range f.byStart {
		out[i] = f.Record(int(r))
	}
	return out
}

// Endpoints returns the distinct endpoint addresses, ascending. It walks the
// pair index, not the rows.
func (f *Frame) Endpoints() []Addr { return endpoints(len(f.pairs), f.PairAt) }

// endpoints returns the distinct endpoints of pair(0) .. pair(n-1),
// ascending.
func endpoints(n int, pair func(int) Pair) []Addr {
	var out []Addr
	seen := make(map[Addr]struct{}, 2*n)
	for i := 0; i < n; i++ {
		p := pair(i)
		for _, a := range [2]Addr{p.A, p.B} {
			if _, ok := seen[a]; !ok {
				seen[a] = struct{}{}
				out = append(out, a)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// All returns the view covering the whole frame. The view's index arrays
// are built on demand — the per-job pipeline goes through SelectMany and
// never pays for them.
func (f *Frame) All() View {
	pairIdx := make([]int32, len(f.pairs))
	for i := range pairIdx {
		pairIdx[i] = int32(i)
	}
	rowPair := make([]int32, len(f.byStart))
	for i, r := range f.byStart {
		rowPair[i] = f.rowPair[r]
	}
	return View{f: f, pairIdx: pairIdx, rows: f.byStart, rowPair: rowPair}
}

// Select returns the view of every pair whose two endpoints both belong to
// endpoints. No rows are copied. It is SelectMany with a single group, so
// both selection forms share one row-ordering implementation.
func (f *Frame) Select(endpoints []Addr) View {
	return f.SelectMany([][]Addr{endpoints})[0]
}

// SelectMany partitions the frame into one view per endpoint group in a
// single pass over the pair index and the start-ordered rows. Groups must
// be disjoint; pairs bridging two groups (or touching no group) belong to
// no view. The i-th view corresponds to groups[i], and each view's rows
// are in (start, id) order.
func (f *Frame) SelectMany(groups [][]Addr) []View {
	owner := make(map[Addr]int32, len(groups)*4)
	for g, members := range groups {
		for _, a := range members {
			owner[a] = int32(g) + 1
		}
	}
	views := make([]View, len(groups))
	for g := range views {
		views[g].f = f
	}
	// Assign each pair to its group; remember its view-local index.
	pairGroup := make([]int32, len(f.pairs))
	pairLocal := make([]int32, len(f.pairs))
	counts := make([]int, len(groups))
	for i, p := range f.pairs {
		g := owner[p.A]
		if g == 0 || owner[p.B] != g {
			pairGroup[i] = -1
			continue
		}
		v := &views[g-1]
		pairGroup[i] = g - 1
		pairLocal[i] = int32(len(v.pairIdx))
		v.pairIdx = append(v.pairIdx, int32(i))
		lo, hi := f.PairSpan(i)
		counts[g-1] += hi - lo
	}
	for g := range views {
		views[g].rows = make([]int32, 0, counts[g])
		views[g].rowPair = make([]int32, 0, counts[g])
	}
	// One pass over the start order keeps every view's rows start-ordered.
	for _, r := range f.byStart {
		gp := f.rowPair[r]
		g := pairGroup[gp]
		if g < 0 {
			continue
		}
		views[g].rows = append(views[g].rows, r)
		views[g].rowPair = append(views[g].rowPair, pairLocal[gp])
	}
	return views
}

// View is a cheap subset of a Frame: a sorted list of pair spans plus a
// start-ordered row permutation. Views alias their frame; the zero View is
// empty and usable.
type View struct {
	f       *Frame
	pairIdx []int32 // ascending global pair indices
	rows    []int32 // frame rows in (start, id) order
	rowPair []int32 // view-local pair index per rows element
}

// Frame returns the backing frame (nil for the zero View).
func (v View) Frame() *Frame { return v.f }

// Len returns the number of rows in the view.
func (v View) Len() int { return len(v.rows) }

// NumPairs returns the number of pairs in the view.
func (v View) NumPairs() int { return len(v.pairIdx) }

// PairAt returns the view's i-th pair (ascending order).
func (v View) PairAt(i int) Pair { return v.f.pairs[v.pairIdx[i]] }

// PairSpan returns the frame row span [lo, hi) of the view's i-th pair.
func (v View) PairSpan(i int) (lo, hi int) { return v.f.PairSpan(int(v.pairIdx[i])) }

// Rows returns the view's frame row indices in (start, id) order. The
// result aliases the view and must not be modified.
func (v View) Rows() []int32 { return v.rows }

// RowPairs returns, parallel to Rows, the view-local pair index of each
// row. The result aliases the view and must not be modified.
func (v View) RowPairs() []int32 { return v.rowPair }

// Records materializes the view's rows in (start, id) order — exactly what
// filtering a SortByStart-ed record slice to the view's pairs yields.
// Switch slices alias the shared path table.
func (v View) Records() []Record {
	out := make([]Record, len(v.rows))
	for i, r := range v.rows {
		out[i] = v.f.Record(int(r))
	}
	return out
}

// Endpoints returns the distinct endpoints of the view's pairs, ascending.
func (v View) Endpoints() []Addr { return endpoints(len(v.pairIdx), v.PairAt) }
