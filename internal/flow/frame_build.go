package flow

import "math/bits"

// Build freezes the accumulated rows into a Frame. The builder remains
// usable; paths interned so far keep their ids, and rows appended later
// appear only in subsequently built frames.
//
// Built frames are canonical: rows are sorted by (pair, start, id) and the
// path table is renumbered in first-use order over the sorted rows (paths
// no row references are dropped), so the same row multiset produces
// byte-identical WriteTo output regardless of append order, intern order,
// or which ingest path (per-record or bulk) filled the builder. The sort
// is linear in the rows (rowOrder), and one sorter serves it and the
// frame's start index.
func (b *FrameBuilder) Build() *Frame {
	n := len(b.ids)
	r := newRadixSort(n)
	order := b.rowOrder(r)
	remap, table := b.canonicalTable(order)
	f := &Frame{
		ids:    make([]uint64, n),
		starts: make([]int64, n),
		durs:   make([]int64, n),
		srcs:   make([]Addr, n),
		dsts:   make([]Addr, n),
		nbytes: make([]int64, n),
		paths:  make([]PathID, n),
		table:  table,
	}
	for x, i := range order {
		f.ids[x] = b.ids[i]
		f.starts[x] = b.starts[i]
		f.durs[x] = b.durs[i]
		f.srcs[x] = b.srcs[i]
		f.dsts[x] = b.dsts[i]
		f.nbytes[x] = b.nbytes[i]
		if p := b.paths[i]; p != NoPath {
			f.paths[x] = remap[p]
		} else {
			f.paths[x] = NoPath
		}
	}
	f.buildIndexes(r) // reuses r's buffers, order's among them
	return f
}

// BuildParallel is Build: one linear sort leaves no worker count to
// choose, and workers is ignored. bench/shadow.go still names it.
func (b *FrameBuilder) BuildParallel(workers int) *Frame { return b.Build() }

// rowOrder returns the rows in (pair, start, id, row) order, the unique
// permutation under that total order, sorted by r, a sorter for as many
// rows. startIndex puts them in (start, id, row) order, and one stable
// radix sort on the canonical pair keeps that order within each pair.
// Each pair's key is A's offset from the smallest A above B's offset from
// the smallest B, so the keys order as the pairs do and fit in 64 bits.
func (b *FrameBuilder) rowOrder(r *radixSort) []int32 {
	order := r.startIndex(b.starts, b.ids)
	lo, hi := Pair{^Addr(0), ^Addr(0)}, Pair{}
	for i, s := range b.srcs {
		p := MakePair(s, b.dsts[i])
		lo, hi = Pair{min(lo.A, p.A), min(lo.B, p.B)}, Pair{max(hi.A, p.A), max(hi.B, p.B)}
	}
	lowBits := bits.Len32(uint32(hi.B - lo.B))
	for i, row := range order {
		p := MakePair(b.srcs[row], b.dsts[row])
		r.keys[i] = uint64(p.A-lo.A)<<lowBits | uint64(p.B-lo.B)
	}
	r.sort(bits.Len32(uint32(hi.A-lo.A)) + lowBits)
	return r.rows
}

// canonicalTable renumbers the builder's interned paths in first-use order
// over the sorted rows, dropping paths no row references. Frames are
// thereby canonical in their path table too: the same row multiset yields
// the same PathIDs and the same table bytes regardless of the order rows
// were appended or paths interned — which is what lets bulk ingest
// (InternTable remaps in table order, not arrival order) produce frames
// bit-identical to the per-record path. The builder's own ids are
// untouched.
func (b *FrameBuilder) canonicalTable(order []int32) ([]PathID, PathTable) {
	np := b.table.NumPaths()
	if np == 0 {
		return nil, PathTable{}
	}
	remap := make([]PathID, np)
	for i := range remap {
		remap[i] = NoPath
	}
	used := make([]PathID, 0, np) // old ids in first-use order
	for _, i := range order {
		if p := b.paths[i]; p != NoPath && remap[p] == NoPath {
			remap[p] = PathID(len(used))
			used = append(used, p)
		}
	}
	if len(used) == 0 {
		return remap, PathTable{}
	}
	total := 0
	for _, p := range used {
		total += int(b.table.offs[p+1] - b.table.offs[p])
	}
	t := PathTable{
		offs:     make([]int32, 1, len(used)+1),
		switches: make([]SwitchID, 0, total),
	}
	for _, p := range used {
		t.switches = append(t.switches, b.table.switches[b.table.offs[p]:b.table.offs[p+1]]...)
		t.offs = append(t.offs, int32(len(t.switches)))
	}
	return remap, t
}

// buildIndexes derives the pair index and the start index from already
// canonically sorted columns, the start index sorted by r, a sorter for
// as many rows. Build and ReadFrame both reach the indexes through it, so
// a decoded frame's indexes are bit-identical to the builder's for the
// same columns. Both indexes are linear in the rows: the pair index is one
// scan, the start index a radix sort (startIndex).
func (f *Frame) buildIndexes(r *radixSort) {
	n := len(f.ids)
	f.rowPair = make([]int32, n)
	for i := 0; i < n; i++ {
		p := MakePair(f.srcs[i], f.dsts[i])
		if len(f.pairs) == 0 || f.pairs[len(f.pairs)-1] != p {
			f.pairs = append(f.pairs, p)
			f.pairOff = append(f.pairOff, int32(i))
		}
		f.rowPair[i] = int32(len(f.pairs) - 1)
	}
	f.pairOff = append(f.pairOff, int32(n))
	f.byStart = r.startIndex(f.starts, f.ids)
}

// radixBits is the widest digit one radix pass sorts on: 2^11 counters
// stay cache-resident while a pass scatters.
const radixBits = 11

// radixSort sorts rows by keys, a parallel slice, scattering into the tmp
// slices and swapping them with keys and rows after each pass, so keys and
// rows hold the result when sort returns. One value serves every sort of
// a build, each of which overwrites what the last one left.
type radixSort struct {
	keys, tmpKeys []uint64
	rows, tmpRows []int32
	counts        []int32
}

// newRadixSort returns a sorter for n rows.
func newRadixSort(n int) *radixSort {
	keys := make([]uint64, 2*n)
	return &radixSort{keys: keys[:n], tmpKeys: keys[n:], rows: make([]int32, n), tmpRows: make([]int32, n)}
}

// startIndex returns the rows in (start, id, row) order, the unique
// permutation under that total order, in time linear in the rows. Each
// row's key is its start offset from the earliest start, with its id
// offset from the smallest id in the bits below, and one stable radix sort
// of those keys, laid out in row order, is the whole index: equal starts,
// common because a collective's chunks start together, are ordered by id
// in the same passes. Collector ids are sequential, so a window's id
// offsets need about as many bits as its row count does (18 for 180 k
// rows), and with the 36 bits of start of a 60 s window the key fits in 64
// bits. When it does not, the rows are radix sorted by id first and then,
// stably, by start offset alone. Offsets are taken in uint64, so a span of
// starts past 2^63 still sorts right. The result is r.rows: rowOrder sorts
// it on by pair, and buildIndexes keeps it as a frame's start index.
func (r *radixSort) startIndex(starts []int64, ids []uint64) []int32 {
	n := len(starts)
	if n == 0 {
		return r.rows
	}
	s0, s1, i0, i1 := starts[0], starts[0], ids[0], ids[0]
	for i, s := range starts {
		s0, s1, i0, i1 = min(s0, s), max(s1, s), min(i0, ids[i]), max(i1, ids[i])
	}
	startBits, idBits := bits.Len64(uint64(s1)-uint64(s0)), bits.Len64(i1-i0)
	width := startBits + idBits
	if width > 64 {
		for i, id := range ids {
			r.keys[i], r.rows[i] = id-i0, int32(i)
		}
		r.sort(idBits)
		for i, row := range r.rows {
			r.keys[i] = uint64(starts[row]) - uint64(s0)
		}
		width = startBits
	} else {
		for i, s := range starts {
			r.keys[i], r.rows[i] = (uint64(s)-uint64(s0))<<idBits|(ids[i]-i0), int32(i)
		}
	}
	r.sort(width)
	return r.rows
}

// sort stably sorts keys below 2^width and their rows by key. A digit is at
// most radixBits wide, and no wider than the key count's bit length, so a
// small frame does not clear counters it cannot fill; the width is split
// evenly over as few passes as that allows. Width 0 means every key is
// equal, and fewer than two keys are sorted already.
func (r *radixSort) sort(width int) {
	if width == 0 || len(r.keys) < 2 {
		return
	}
	keys, rows, tk, tr := r.keys, r.rows, r.tmpKeys, r.tmpRows
	digit := min(radixBits, bits.Len(uint(len(keys))))
	passes := (width + digit - 1) / digit
	w := uint((width + passes - 1) / passes)
	mask := uint64(1)<<w - 1
	counts := append(r.counts[:0], make([]int32, passes<<w)...)
	for _, k := range keys {
		for p := 0; p < passes; p, k = p+1, k>>w {
			counts[p<<w+int(k&mask)]++
		}
	}
	for p := 0; p < passes; p++ {
		shift, c := uint(p)*w, counts[p<<w:(p+1)<<w]
		sum := int32(0)
		for d, m := range c {
			c[d], sum = sum, sum+m
		}
		for i, k := range keys {
			d := k >> shift & mask
			tk[c[d]], tr[c[d]] = k, rows[i]
			c[d]++
		}
		keys, tk, rows, tr = tk, keys, tr, rows
	}
	r.keys, r.tmpKeys, r.rows, r.tmpRows, r.counts = keys, tk, rows, tr, counts
}
