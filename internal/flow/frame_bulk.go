package flow

// Bulk columnar ingest: append already-columnar rows (a decoded LPF1 frame)
// into a FrameBuilder without materializing a Record per row. The only
// per-row work is seven column appends plus one PathID translation through
// a remap computed once per source table (InternTable); Build's canonical
// renumbering then guarantees the resulting frame is byte-identical to the
// one the per-record AppendRecord path would have produced.

// GrowTable pre-sizes the builder's path table for paths additional paths
// totalling switches switch entries — the table-side counterpart of Grow,
// which pre-sizes only the row columns. A following InternTable (or
// InternPath sequence) within that budget does no mid-append reallocation.
func (b *FrameBuilder) GrowTable(paths, switches int) {
	if len(b.table.offs) == 0 {
		b.table.offs = append(make([]int32, 0, paths+1), 0)
	} else if need := len(b.table.offs) + paths; cap(b.table.offs) < need {
		b.table.offs = append(make([]int32, 0, need), b.table.offs...)
	}
	if need := len(b.table.switches) + switches; cap(b.table.switches) < need {
		b.table.switches = append(make([]SwitchID, 0, need), b.table.switches...)
	}
}

// InternTable interns every path of t into the builder in one pass and
// returns the remap: remap[old] is the builder's id for t's path old. The
// builder's table is pre-sized from t first (GrowTable), so even when every
// path is new the appends reallocate nothing. A nil remap means the
// identity translation — returned when t is empty, and when the builder's
// own table is empty so t's table can be adopted wholesale (the common
// bulk-ingest case: a fresh window builder receiving its first frame pays
// two column copies and zero per-path interning; the intern index is
// rebuilt lazily if a later InternPath needs it).
func (b *FrameBuilder) InternTable(t *PathTable) []PathID {
	np := t.NumPaths()
	if np == 0 {
		return nil
	}
	b.GrowTable(np, len(t.switches))
	if b.table.NumPaths() == 0 {
		b.table.offs = append(b.table.offs, t.offs[1:]...)
		b.table.switches = append(b.table.switches, t.switches...)
		b.index = nil // stale; rebuilt on the next InternPath
		return nil
	}
	remap := make([]PathID, np)
	for p := 0; p < np; p++ {
		remap[p] = b.InternPath(t.switches[t.offs[p]:t.offs[p+1]])
	}
	return remap
}

// AppendFrameRows bulk-appends the rows of f listed in rows (every row when
// rows is nil), translating each row's path through remap — the result of
// InternTable on f's path table (NoPath passes through; a nil remap is the
// identity translation). Call Grow first to make the row appends
// realloc-free.
func (b *FrameBuilder) AppendFrameRows(f *Frame, remap []PathID, rows []int32) {
	if rows == nil {
		b.ids = append(b.ids, f.ids...)
		b.starts = append(b.starts, f.starts...)
		b.durs = append(b.durs, f.durs...)
		b.srcs = append(b.srcs, f.srcs...)
		b.dsts = append(b.dsts, f.dsts...)
		b.nbytes = append(b.nbytes, f.nbytes...)
		if remap == nil {
			b.paths = append(b.paths, f.paths...)
			return
		}
		for _, p := range f.paths {
			if p != NoPath {
				p = remap[p]
			}
			b.paths = append(b.paths, p)
		}
		return
	}
	for _, r := range rows {
		p := f.paths[r]
		if p != NoPath && remap != nil {
			p = remap[p]
		}
		b.ids = append(b.ids, f.ids[r])
		b.starts = append(b.starts, f.starts[r])
		b.durs = append(b.durs, f.durs[r])
		b.srcs = append(b.srcs, f.srcs[r])
		b.dsts = append(b.dsts, f.dsts[r])
		b.nbytes = append(b.nbytes, f.nbytes[r])
		b.paths = append(b.paths, p)
	}
}

// MinStartNanos returns the smallest row start (UnixNano). The frame must
// be non-empty.
func (f *Frame) MinStartNanos() int64 { return f.starts[f.byStart[0]] }

// MaxStartNanos returns the largest row start (UnixNano). The frame must
// be non-empty.
func (f *Frame) MaxStartNanos() int64 { return f.starts[f.byStart[len(f.byStart)-1]] }

// NewFrameParallel is NewFrame with the close-time Build spread over
// workers goroutines (workers <= 0 means GOMAXPROCS); the result is
// byte-identical to NewFrame's, which is NewFrameParallel(records, 1).
func NewFrameParallel(records []Record, workers int) *Frame {
	b := NewFrameBuilder()
	b.Grow(len(records))
	for _, r := range records {
		b.AppendRecord(r)
	}
	return b.BuildParallel(workers)
}
