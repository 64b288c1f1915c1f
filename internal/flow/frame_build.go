package flow

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
)

// parallelBuildMinRows is the row count below which BuildParallel runs the
// serial path regardless of the requested worker count: goroutine fan-out
// costs more than it saves on small windows, and most test frames stay on
// the reference path.
const parallelBuildMinRows = 4096

// BuildParallel is Build with the permutation sort and the column
// permutation spread over workers goroutines (workers <= 0 means
// GOMAXPROCS). The output is byte-identical to Build's for every worker
// count: rows are partitioned by canonical-pair hash, shards are sorted
// concurrently with a total comparator ((pair, start, id), original row
// index breaking exact ties), and the k-way merge of sorted shards
// therefore reproduces the unique globally sorted permutation no matter how
// many shards there were. The indexes are then derived by buildIndexes on
// one goroutine, as ReadFrame derives them: the start index is a linear
// radix sort, which beats a comparison sort spread over two cores.
func (b *FrameBuilder) BuildParallel(workers int) *Frame {
	n := len(b.ids)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < parallelBuildMinRows {
		workers = 1
	}

	// Canonical pair per row.
	pa := make([]Addr, n)
	pb := make([]Addr, n)
	parallelRanges(workers, n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, c := b.srcs[i], b.dsts[i]
			if a > c {
				a, c = c, a
			}
			pa[i], pb[i] = a, c
		}
	})
	// Total order over rows: (pair, start, id), original index last so
	// exact duplicates sort deterministically in every partitioning.
	less := func(i, j int32) bool {
		if pa[i] != pa[j] {
			return pa[i] < pa[j]
		}
		if pb[i] != pb[j] {
			return pb[i] < pb[j]
		}
		if b.starts[i] != b.starts[j] {
			return b.starts[i] < b.starts[j]
		}
		if b.ids[i] != b.ids[j] {
			return b.ids[i] < b.ids[j]
		}
		return i < j
	}
	var order []int32
	if workers == 1 {
		order = make([]int32, n)
		for i := range order {
			order[i] = int32(i)
		}
		sort.Slice(order, func(x, y int) bool { return less(order[x], order[y]) })
	} else {
		order = sortRowsSharded(pa, pb, less, workers)
	}

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
	parallelRanges(workers, n, func(lo, hi int) {
		for x := lo; x < hi; x++ {
			i := order[x]
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
	})
	f.buildIndexes()
	return f
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

// pairHash is a splitmix64 finalizer over the packed canonical pair; it
// decides only shard membership, never output order.
func pairHash(a, b Addr) uint64 {
	x := uint64(a)<<32 | uint64(b)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sortRowsSharded partitions rows by canonical-pair hash into one shard per
// worker (a pair's rows never straddle shards), sorts the shards
// concurrently, and k-way merges them in fixed shard order. less must be a
// total order, so the merged result is the unique sorted permutation —
// independent of the shard count.
func sortRowsSharded(pa, pb []Addr, less func(i, j int32) bool, shards int) []int32 {
	n := len(pa)
	shardOf := make([]uint32, n)
	counts := make([]int32, shards)
	for i := 0; i < n; i++ {
		s := uint32(pairHash(pa[i], pb[i]) % uint64(shards))
		shardOf[i] = s
		counts[s]++
	}
	bounds := make([]int32, shards+1)
	for s := 0; s < shards; s++ {
		bounds[s+1] = bounds[s] + counts[s]
	}
	buf := make([]int32, n)
	fill := make([]int32, shards)
	copy(fill, bounds[:shards])
	for i := 0; i < n; i++ {
		s := shardOf[i]
		buf[fill[s]] = int32(i)
		fill[s]++
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		bucket := buf[bounds[s]:bounds[s+1]]
		if len(bucket) == 0 {
			continue
		}
		wg.Add(1)
		go func(bucket []int32) {
			defer wg.Done()
			sort.Slice(bucket, func(x, y int) bool { return less(bucket[x], bucket[y]) })
		}(bucket)
	}
	wg.Wait()
	return mergeSortedSpans(buf, bounds, less)
}

// mergeSortedSpans k-way merges the sorted spans buf[bounds[s]:bounds[s+1]]
// into one slice, scanning shards in fixed index order for each pick.
func mergeSortedSpans(buf []int32, bounds []int32, less func(i, j int32) bool) []int32 {
	shards := len(bounds) - 1
	out := make([]int32, 0, len(buf))
	cur := make([]int32, shards)
	copy(cur, bounds[:shards])
	for len(out) < len(buf) {
		best := -1
		for s := 0; s < shards; s++ {
			if cur[s] == bounds[s+1] {
				continue
			}
			if best < 0 || less(buf[cur[s]], buf[cur[best]]) {
				best = s
			}
		}
		out = append(out, buf[cur[best]])
		cur[best]++
	}
	return out
}

// parallelRanges splits [0, n) into one contiguous chunk per worker and
// runs fn on each concurrently. fn must touch only its own range.
func parallelRanges(workers, n int, fn func(lo, hi int)) {
	if workers <= 1 || n == 0 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// buildIndexes derives the pair index and the start index from already
// canonically sorted columns. Build, BuildParallel and ReadFrame all reach
// the indexes through it, so a decoded frame's indexes are bit-identical to
// the builder's for the same columns. Both indexes are linear in the rows:
// the pair index is one scan, the start index a radix sort (startIndex).
func (f *Frame) buildIndexes() {
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
	f.byStart = startIndex(f.starts, f.ids)
}

// radixBits is the widest digit one radix pass sorts on: 2^11 counters
// stay cache-resident while a pass scatters.
const radixBits = 11

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
// starts past 2^63 still sorts right.
func startIndex(starts []int64, ids []uint64) []int32 {
	n := len(starts)
	if n == 0 {
		return []int32{}
	}
	s0, s1, i0, i1 := starts[0], starts[0], ids[0], ids[0]
	for i, s := range starts {
		s0, s1, i0, i1 = min(s0, s), max(s1, s), min(i0, ids[i]), max(i1, ids[i])
	}
	startBits, idBits := bits.Len64(uint64(s1)-uint64(s0)), bits.Len64(i1-i0)
	keys := make([]uint64, 2*n)
	r := radixSort{keys: keys[:n], tmpKeys: keys[n:], rows: make([]int32, n), tmpRows: make([]int32, n)}
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

// radixSort sorts rows by keys, a parallel slice, scattering into the tmp
// slices and swapping them with keys and rows after each pass, so keys and
// rows hold the result when sort returns.
type radixSort struct {
	keys, tmpKeys []uint64
	rows, tmpRows []int32
}

// sort stably sorts keys below 2^width and their rows by key. A digit is at
// most radixBits wide, and no wider than the key count's bit length, so a
// small frame does not clear counters it cannot fill; the width is split
// evenly over as few passes as that allows. Width 0 means every key is
// equal, so the rows are already in order.
func (r *radixSort) sort(width int) {
	if width == 0 {
		return
	}
	keys, rows, tk, tr := r.keys, r.rows, r.tmpKeys, r.tmpRows
	digit := min(radixBits, bits.Len(uint(len(keys))))
	passes := (width + digit - 1) / digit
	w := uint((width + passes - 1) / passes)
	mask := uint64(1)<<w - 1
	counts := make([]int32, passes<<w)
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
	r.keys, r.tmpKeys, r.rows, r.tmpRows = keys, tk, rows, tr
}
