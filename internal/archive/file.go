package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
)

// FileWriter is the file-backed LPA1 segment writer — the one unit of
// capture. A single-file archive is one FileWriter; a StoreWriter runs one
// per segment; the resume salvage rewrites a torn segment through one. It
// appends to a temporary and Close commits it: archive manifest + trailer,
// then binfmt.Commit — fsync, close, rename onto the final path, fsync of
// the parent directory.
// Abort, or a Close that fails, leaves the temporary on disk for salvage
// and never touches the final path.
type FileWriter struct {
	path  string
	f     *os.File // the temporary; nil once committed or aborted
	aw    *Writer
	entry segEntry
	err   error
}

// CreateFile starts a capture that Close commits to path. It is written to
// path+".tmp", truncating whatever an earlier capture left there.
func CreateFile(path string, meta Meta) (*FileWriter, error) {
	return createFile(path+".tmp", path, meta, os.O_TRUNC)
}

// createFile opens tmp with the given extra open flag: O_TRUNC to replace a
// leftover, O_EXCL where a leftover means a second writer or an unreconciled
// crash (store segments).
func createFile(tmp, path string, meta Meta, flag int) (*FileWriter, error) {
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|flag, 0o666)
	if err != nil {
		return nil, fmt.Errorf("archive: create segment: %w", err)
	}
	aw, err := NewWriter(f, meta)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &FileWriter{path: path, f: f, aw: aw, entry: segEntry{sum: newSegSummary()}}, nil
}

// Append archives one window; windows arrive in emission (seq) order.
func (fw *FileWriter) Append(seq int, start, end time.Time, f *flow.Frame) error {
	if err := fw.aw.Append(seq, start, end, f); err != nil {
		return err
	}
	fw.entry.add(fw.aw.segs[len(fw.aw.segs)-1], f)
	return nil
}

// SetAnchor records the session's event-time grid origin for the trailer.
func (fw *FileWriter) SetAnchor(t time.Time) { fw.aw.SetAnchor(t) }

// Close commits the file: the archive trailer, then binfmt.Commit with the
// directory fsync. Idempotent and sticky, like Writer.Close.
func (fw *FileWriter) Close() error {
	if fw.f == nil {
		return fw.err
	}
	f := fw.f
	fw.f = nil
	err := fw.aw.Close()
	if err != nil {
		f.Close()
	} else {
		err = binfmt.Commit(f, fw.path, true)
	}
	if err != nil {
		fw.err = fmt.Errorf("archive: commit %s: %w", filepath.Base(fw.path), err)
	}
	return fw.err
}

// Abort releases the file without committing it; the temporary stays on
// disk. A no-op after Close.
func (fw *FileWriter) Abort() {
	if fw.f != nil {
		fw.f.Close()
		fw.f = nil
		fw.err = fmt.Errorf("archive: %s aborted", filepath.Base(fw.path))
	}
}

// segment returns the store-manifest entry for what has been appended.
func (fw *FileWriter) segment(index int) StoreSegment {
	return fw.entry.finish(index, fw.aw.Bytes())
}

// openFile opens one LPA1 file and parses it: strictly, or (lenient)
// strictly first and by salvage scan when that fails. rep is nil for a
// strict open. The caller closes the file.
func openFile(path string, lenient bool) (f *os.File, r *Reader, rep *RecoveryReport, err error) {
	if f, err = os.Open(path); err != nil {
		return nil, nil, nil, err
	}
	st, err := f.Stat()
	if err == nil && lenient {
		r, rep, err = OpenReaderRecovering(f, st.Size())
	} else if err == nil {
		r, err = OpenReader(f, st.Size())
	}
	if err != nil {
		f.Close()
		return nil, nil, nil, err
	}
	return f, r, rep, nil
}

// readEntry opens one segment file and rebuilds its store-manifest entry.
// With summarize every frame is decoded and the pair/switch summaries are
// recomputed; without, the entry matches every query. The returned reader's
// file is closed: only its geometry and anchor remain usable. rep is as
// openFile returns it.
func readEntry(path string, index int, lenient, summarize bool) (StoreSegment, *Reader, *RecoveryReport, error) {
	f, r, rep, err := openFile(path, lenient)
	if err != nil {
		return StoreSegment{}, nil, nil, err
	}
	defer f.Close()
	var e segEntry
	if summarize {
		e.sum = newSegSummary()
	}
	for i := range r.segs {
		var fr *flow.Frame
		if summarize {
			if fr, err = r.Frame(i); err != nil {
				return StoreSegment{}, nil, nil, err
			}
		}
		e.add(r.segs[i], fr)
	}
	return e.finish(index, r.size), r, rep, nil
}

// segEntry accumulates one segment file's store-manifest entry window by
// window — the one place a window's seq, bounds and pair/switch keys are
// folded into a StoreSegment, for writers and readers alike.
type segEntry struct {
	seg StoreSegment
	sum segSummary
}

// add folds one window in; a nil frame leaves the summaries alone.
func (e *segEntry) add(s Segment, f *flow.Frame) {
	g := &e.seg
	if g.Windows == 0 {
		g.FirstSeq, g.LastSeq, g.MinStart, g.MaxEnd = s.Seq, s.Seq, s.Start, s.End
	}
	g.Windows++
	g.FirstSeq, g.LastSeq = min(g.FirstSeq, s.Seq), max(g.LastSeq, s.Seq)
	if s.Start.Before(g.MinStart) {
		g.MinStart = s.Start
	}
	if s.End.After(g.MaxEnd) {
		g.MaxEnd = s.End
	}
	if f != nil {
		e.sum.add(f)
	}
}

func (e *segEntry) finish(index int, size int64) StoreSegment {
	g := e.seg
	g.Index, g.Bytes = index, size
	g.Pairs, g.Switches = sortedKeys(e.sum.pairs), sortedKeys(e.sum.switches)
	g.PairOverflow, g.SwitchOverflow = e.sum.pairs == nil, e.sum.switches == nil
	return g
}

// segSummary accumulates a segment's distinct pair/switch keys; a nil map
// marks overflow past MaxStoreSummary (the segment then matches every
// query), which is also what the zero value says.
type segSummary struct {
	pairs, switches map[uint64]struct{}
}

func newSegSummary() segSummary {
	return segSummary{
		pairs:    make(map[uint64]struct{}),
		switches: make(map[uint64]struct{}),
	}
}

func (s *segSummary) add(f *flow.Frame) {
	if s.pairs != nil {
		for _, p := range f.Pairs() {
			s.pairs[PairKey(p)] = struct{}{}
		}
		if len(s.pairs) > MaxStoreSummary {
			s.pairs = nil
		}
	}
	if s.switches != nil {
		t := f.PathTable()
		for id := 0; id < t.NumPaths(); id++ {
			for _, sw := range t.Path(flow.PathID(id)) {
				s.switches[uint64(sw)] = struct{}{}
			}
		}
		if len(s.switches) > MaxStoreSummary {
			s.switches = nil
		}
	}
}

func sortedKeys(m map[uint64]struct{}) []uint64 {
	if len(m) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
