package archive

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// StoreRecovery describes what a lenient store open or resume had to
// reconcile. Clean means the store opened strictly with nothing to note.
type StoreRecovery struct {
	Clean bool
	Notes []string
}

func (r *StoreRecovery) note(format string, args ...any) {
	r.Clean = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

func (r *StoreRecovery) String() string {
	if r.Clean {
		return "store clean"
	}
	return "store recovered: " + strings.Join(r.Notes, "; ")
}

// Store is a read view of a multi-segment store (or of a single-file LPA1
// archive presented as a one-segment store). It holds no open files;
// Replay/Scan open the segment files they visit.
type Store struct {
	dir    string
	meta   Meta
	anchor time.Time
	segs   []StoreSegment // index order
}

// storeState is a store directory as read from disk: the manifest's
// content and every file labelled against it (see reconcile.go).
type storeState struct {
	meta   Meta
	anchor time.Time
	next   int
	segs   []StoreSegment
	files  []storeFile
}

// readStore reads and strictly decodes the manifest, lists the directory
// and classifies it. A manifest that cannot be read or decoded comes back
// as manifestErr with the files labelled against an empty manifest, which
// is what the lenient open rebuilds from.
func readStore(dir string) (st storeState, manifestErr, err error) {
	b, manifestErr := os.ReadFile(filepath.Join(dir, StoreManifestName))
	var anchor int64
	if manifestErr == nil {
		st.meta, anchor, st.next, st.segs, manifestErr = decodeStoreManifest(b)
	}
	if manifestErr != nil {
		st = storeState{next: 1}
	}
	st.anchor = nanosTime(anchor)
	sd, err := listStoreDir(dir)
	if err != nil {
		return st, manifestErr, err
	}
	st.files = classify(st.segs, st.next, sd)
	return st, manifestErr, nil
}

// OpenStore strictly opens a store directory: a valid manifest, every
// manifested segment present at its recorded size, no unmanifested
// segments, and no write temporaries (a leftover .tmp means a crashed
// writer — use OpenStoreRecovering or ResumeStoreWriter, which would
// otherwise be silently omitted data).
func OpenStore(dir string) (*Store, error) {
	st, manifestErr, err := readStore(dir)
	if manifestErr != nil {
		return nil, fmt.Errorf("archive: open store: %w", manifestErr)
	}
	if err != nil {
		return nil, err
	}
	for _, f := range st.files {
		if f.label != labelOK {
			return nil, fmt.Errorf("archive: store %s: %v; open with recovery", dir, f)
		}
	}
	return newStore(dir, st.meta, st.anchor, st.segs), nil
}

// OpenStoreRecovering opens a store leniently, reconciling the manifest
// against the files: a manifest one step behind its directory (finalize or
// prune interrupted mid-crash) is repaired in memory, an unreadable or
// missing manifest is rebuilt from the segment files, intact finalized
// segments missing from the manifest are adopted, a manifested segment of
// the wrong size is salvage-scanned at replay, and a leftover open
// segment's .tmp is salvage-scanned and replayed as a trailing segment.
// The view is read-only: nothing on disk is modified.
func OpenStoreRecovering(dir string) (*Store, *StoreRecovery, error) {
	rec := &StoreRecovery{Clean: true}
	st, manifestErr, err := readStore(dir)
	if err != nil {
		return nil, nil, err
	}
	haveMeta := manifestErr == nil
	if !haveMeta {
		rec.note("manifest unusable (%v); rebuilding from segment files", manifestErr)
	}
	var segs []StoreSegment
	for _, f := range st.files {
		switch f.label {
		case labelOK:
			segs = append(segs, *f.seg)
		case labelSizeMismatch:
			f.seg.salvage = true
			segs = append(segs, *f.seg)
			rec.note("%v; salvaging what is intact", f)
		case labelMissing:
			rec.note("%v; dropped", f)
		case labelPruned, labelStaleTmp, labelSalvage, labelManifestTmp:
			rec.note("ignoring %v", f)
		default: // adoptable, unexpected, open-tmp, tmp-ahead: take what is intact
			entry, r, rep, ferr := readEntry(filepath.Join(dir, f.name), f.index, true, false)
			switch {
			case ferr != nil:
				rec.note("%v unreadable (%v); skipped", f, ferr)
			case entry.Windows == 0:
				rec.note("%v held no intact windows", f)
			case haveMeta && r.meta != st.meta:
				rec.note("%v has geometry %+v, store %+v; skipped", f, r.meta, st.meta)
			default:
				st.meta, haveMeta = r.meta, true
				entry.file, entry.salvage = f.name, !rep.Clean
				segs = append(segs, entry)
				rec.note("%v; adopted %d windows", f, entry.Windows)
			}
		}
	}
	if !haveMeta {
		return nil, nil, fmt.Errorf("archive: %s holds no readable store manifest or segments", dir)
	}
	return newStore(dir, st.meta, st.anchor, segs), rec, nil
}

// FileStore presents a single-file LPA1 archive as a strict one-segment
// store — the compatibility path keeping every pre-store archive readable.
func FileStore(path string) (*Store, error) {
	st, _, err := fileStore(path, false)
	return st, err
}

// FileStoreRecovering presents a single-file archive leniently: strict
// open first, salvage scan on failure, mirroring OpenReaderRecovering.
func FileStoreRecovering(path string) (*Store, *StoreRecovery, error) {
	return fileStore(path, true)
}

func fileStore(path string, lenient bool) (*Store, *StoreRecovery, error) {
	entry, r, rep, err := readEntry(path, 1, lenient, false)
	if err != nil {
		return nil, nil, err
	}
	rec := &StoreRecovery{Clean: true}
	if rep != nil && !rep.Clean {
		rec.note("%v", rep)
	}
	var segs []StoreSegment
	if entry.Windows > 0 {
		entry.file, entry.salvage = filepath.Base(path), !rec.Clean
		segs = []StoreSegment{entry}
	}
	return newStore(filepath.Dir(path), r.meta, r.anchor, segs), rec, nil
}

// OpenPath opens either archive layout strictly: a directory is a store, a
// plain file a one-segment store.
func OpenPath(path string) (*Store, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		return OpenStore(path)
	}
	return FileStore(path)
}

// OpenPathRecovering opens either archive layout leniently.
func OpenPathRecovering(path string) (*Store, *StoreRecovery, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, nil, err
	}
	if st.IsDir() {
		return OpenStoreRecovering(path)
	}
	return FileStoreRecovering(path)
}

func newStore(dir string, meta Meta, anchor time.Time, segs []StoreSegment) *Store {
	st := &Store{dir: dir, meta: meta, anchor: anchor, segs: segs}
	if st.anchor.IsZero() && meta.Width > 0 && len(segs) > 0 {
		// The recorded anchor went down with a crash; the earliest window
		// start lies on the original grid, which is all replay needs.
		min := segs[0].MinStart
		for i := 1; i < len(segs); i++ {
			if segs[i].MinStart.Before(min) {
				min = segs[i].MinStart
			}
		}
		st.anchor = min
	}
	return st
}

// Meta returns the recorded monitor window geometry.
func (st *Store) Meta() Meta { return st.meta }

// Anchor returns the replay grid origin: the recorded anchor, or (after a
// crash that lost it) the earliest archived window start, which lies on
// the same grid.
func (st *Store) Anchor() time.Time { return st.anchor }

// NumSegments returns the number of segments in the view.
func (st *Store) NumSegments() int { return len(st.segs) }

// NumWindows returns the total archived window count across segments.
func (st *Store) NumWindows() int {
	n := 0
	for i := range st.segs {
		n += st.segs[i].Windows
	}
	return n
}

// Segments returns the segment index entries in index order.
func (st *Store) Segments() []StoreSegment { return st.segs }

// Select returns the segments the query cannot prune — the manifest-level
// candidate set, computed without opening any file.
func (st *Store) Select(q Query) []StoreSegment {
	var sel []StoreSegment
	for i := range st.segs {
		if q.MatchSegment(st.segs[i]) {
			sel = append(sel, st.segs[i])
		}
	}
	return sel
}

// Replay decodes every archived window across all segments in global
// event-time order — ascending (Start, Seq) over the whole store, exactly
// the order a single-file Reader.Replay visits — and hands each to fn.
// Pushing the frames in this order reproduces the recorded session's
// reports bit for bit, however the windows were cut into segments.
func (st *Store) Replay(fn func(Segment, *flow.Frame) error) error {
	return st.replay(st.segs, nil, fn)
}

// ReplaySelected replays only query-matching segments and, within them,
// only windows overlapping the query's time bounds — the corpus for
// re-analyzing a time/pair/switch slice under a new configuration.
func (st *Store) ReplaySelected(q Query, fn func(Segment, *flow.Frame) error) error {
	return st.replay(st.Select(q), q.OverlapsWindow, fn)
}

// Scan visits individual matching rows: manifest pruning, then window
// time-bounds, then the exact per-row predicate. fn receives the window's
// segment, its frame, and the row index, rows in frame order.
func (st *Store) Scan(q Query, fn func(Segment, *flow.Frame, int) error) error {
	return st.replay(st.Select(q), q.OverlapsWindow, func(s Segment, f *flow.Frame) error {
		for i := 0; i < f.Len(); i++ {
			if !q.MatchRow(f, i) {
				continue
			}
			if err := fn(s, f, i); err != nil {
				return err
			}
		}
		return nil
	})
}

func (st *Store) replay(sel []StoreSegment, keep func(Segment) bool, fn func(Segment, *flow.Frame) error) error {
	type win struct {
		r *Reader
		i int
	}
	var files []*os.File
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	var wins []win
	for si := range sel {
		sg := &sel[si]
		f, r, _, err := openFile(filepath.Join(st.dir, sg.File()), sg.salvage)
		if err != nil {
			return fmt.Errorf("archive: segment %s: %w", sg.File(), err)
		}
		files = append(files, f)
		if r.meta != st.meta {
			return fmt.Errorf("archive: segment %s geometry %+v differs from store %+v", sg.File(), r.meta, st.meta)
		}
		for i := range r.segs {
			if keep == nil || keep(r.segs[i]) {
				wins = append(wins, win{r, i})
			}
		}
	}
	// Global event-time order across segment files: a pre-anchor straggler
	// window in a later segment interleaves here exactly as it does in a
	// single-file archive's manifest sort.
	sort.SliceStable(wins, func(a, b int) bool {
		return eventTimeLess(wins[a].r.segs[wins[a].i], wins[b].r.segs[wins[b].i])
	})
	for _, w := range wins {
		f, err := w.r.Frame(w.i)
		if err != nil {
			return err
		}
		if err := fn(w.r.Segment(w.i), f); err != nil {
			return err
		}
	}
	return nil
}
