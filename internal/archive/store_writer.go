package archive

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
)

// StoreWriter appends a session's windows to a rotating multi-segment
// store. Construct with CreateStoreWriter (fresh store) or
// ResumeStoreWriter (continue a crashed or cleanly stopped one), append
// windows in emission order, then Close. Like archive.Writer it latches
// the first error: a writer that failed mid-segment leaves its .tmp on
// disk for salvage and refuses further work.
type StoreWriter struct {
	dir    string
	meta   Meta
	policy StorePolicy
	anchor time.Time
	next   int            // index the next segment file will take
	segs   []StoreSegment // finalized, manifest order
	cur    *FileWriter    // the open segment, file index next
	expect int            // next window seq Append accepts (-1: any first seq)
	closed bool
	err    error
}

// CreateStoreWriter claims dir (created if missing) as a fresh store:
// writes an empty manifest and returns a writer whose first Append opens
// segment 1. A directory already holding store state is refused.
func CreateStoreWriter(dir string, meta Meta, policy StorePolicy) (*StoreWriter, error) {
	if err := validateStore(meta, policy); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("archive: create store: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, StoreManifestName)); err == nil {
		return nil, fmt.Errorf("archive: store already exists in %s", dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("archive: create store: %w", err)
	}
	sd, err := listStoreDir(dir)
	if err != nil {
		return nil, err
	}
	if n := len(sd.finalized) + len(sd.tmps) + len(sd.salvages); n > 0 {
		return nil, fmt.Errorf("archive: directory %s holds %d stray segment files (no manifest)", dir, n)
	}
	sw := &StoreWriter{dir: dir, meta: meta, policy: policy, next: 1, expect: -1}
	if err := sw.writeManifest(); err != nil {
		return nil, err
	}
	return sw, nil
}

// SetAnchor records the session's event-time grid origin; it is persisted
// into every finalized segment's trailer and every manifest rewrite, so a
// crash never loses it once the first segment finalized.
func (sw *StoreWriter) SetAnchor(t time.Time) { sw.anchor = t }

// Segments returns how many segments are finalized (the open one excluded).
func (sw *StoreWriter) Segments() int { return len(sw.segs) }

// Append archives one window, rotating first when the previous Append left
// the current segment past a rotation bound. Rotating before the new
// window (never after) keeps finalization aligned with the session
// checkpoint: a segment only ever finalizes after its last window was
// checkpointed, so crash salvage never needs to un-write a finalized file.
func (sw *StoreWriter) Append(seq int, start, end time.Time, f *flow.Frame) error {
	if sw.err != nil {
		return sw.err
	}
	if sw.closed {
		return sw.fail(fmt.Errorf("archive: append to closed store writer"))
	}
	if sw.expect >= 0 && seq != sw.expect {
		return sw.fail(fmt.Errorf("archive: store append seq %d, expected %d", seq, sw.expect))
	}
	if sw.cur != nil && sw.shouldRotate() {
		if err := sw.finalizeCurrent(); err != nil {
			return err
		}
	}
	if sw.cur == nil {
		if err := sw.openSegment(); err != nil {
			return err
		}
	}
	if err := sw.cur.Append(seq, start, end, f); err != nil {
		return sw.fail(err)
	}
	sw.expect = seq + 1
	return nil
}

func (sw *StoreWriter) shouldRotate() bool {
	c, p := sw.cur, sw.policy
	n, e := c.aw.Segments(), &c.entry.seg
	return n > 0 && ((p.RotateWindows > 0 && n >= p.RotateWindows) ||
		(p.RotateBytes > 0 && c.aw.Bytes() >= p.RotateBytes) ||
		(p.RotateSpan > 0 && e.MaxEnd.Sub(e.MinStart) >= p.RotateSpan))
}

func (sw *StoreWriter) openSegment() error {
	c, err := createFile(filepath.Join(sw.dir, segFileName(sw.next, segTmpSuffix)),
		filepath.Join(sw.dir, segFileName(sw.next, segFileSuffix)), sw.meta, os.O_EXCL)
	sw.cur = c
	return sw.fail(err)
}

// finalizeCurrent commits the open segment (FileWriter.Close), then
// rewrites the store manifest and applies retention.
func (sw *StoreWriter) finalizeCurrent() error {
	c := sw.cur
	c.SetAnchor(sw.anchor)
	if err := c.Close(); err != nil {
		return sw.fail(err)
	}
	sw.segs = append(sw.segs, c.segment(sw.next))
	sw.cur = nil
	sw.next++
	if err := sw.writeManifest(); err != nil {
		return err
	}
	return sw.prune()
}

// prune drops the oldest finalized segments past the retention bounds —
// manifest rewritten first (so a crash leaves extra files, never dangling
// manifest entries), files deleted after. The newest finalized segment is
// never pruned.
func (sw *StoreWriter) prune() error {
	p := sw.policy
	if p.RetainSegments == 0 && p.RetainBytes == 0 {
		return nil
	}
	var total int64
	for i := range sw.segs {
		total += sw.segs[i].Bytes
	}
	drop := 0
	for drop < len(sw.segs)-1 {
		over := (p.RetainSegments > 0 && len(sw.segs)-drop > p.RetainSegments) ||
			(p.RetainBytes > 0 && total > p.RetainBytes)
		if !over {
			break
		}
		total -= sw.segs[drop].Bytes
		drop++
	}
	if drop == 0 {
		return nil
	}
	doomed := append([]StoreSegment(nil), sw.segs[:drop]...)
	sw.segs = append([]StoreSegment(nil), sw.segs[drop:]...)
	if err := sw.writeManifest(); err != nil {
		return err
	}
	for i := range doomed {
		if err := os.Remove(filepath.Join(sw.dir, doomed[i].File())); err != nil {
			return sw.fail(fmt.Errorf("archive: prune segment: %w", err))
		}
	}
	return sw.fail(binfmt.SyncDir(sw.dir))
}

// Close finalizes the open segment (if any) and persists the manifest.
// Idempotent and sticky, like archive.Writer.Close.
func (sw *StoreWriter) Close() error {
	if sw.closed {
		return sw.err
	}
	sw.closed = true
	if sw.err != nil {
		return sw.err
	}
	if sw.cur != nil {
		return sw.finalizeCurrent()
	}
	return sw.writeManifest()
}

// Abort releases the writer without finalizing: the open segment's .tmp
// stays on disk for salvage, finalized segments and the manifest stay as
// last persisted.
func (sw *StoreWriter) Abort() {
	sw.closed = true
	if sw.cur != nil {
		sw.cur.Abort()
		sw.cur = nil
	}
}

// fail latches the writer's first error; a nil err passes through.
func (sw *StoreWriter) fail(err error) error {
	if err == nil {
		return nil
	}
	if sw.err == nil {
		sw.err = err
	}
	return sw.err
}

// writeManifest replaces the store manifest atomically and durably
// (binfmt.WriteFile with the directory fsync).
func (sw *StoreWriter) writeManifest() error {
	b := encodeStoreManifest(sw.meta, anchorNanos(sw.anchor), sw.next, sw.segs)
	err := binfmt.WriteFile(filepath.Join(sw.dir, StoreManifestName), true, func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	})
	if err != nil {
		return sw.fail(fmt.Errorf("archive: write %s: %w", StoreManifestName, err))
	}
	return nil
}

// ResumeStoreWriter reopens a store for continued appending after a crash
// or clean stop. resumeSeq is the session checkpoint's next window seq —
// the first window the resumed monitor will re-emit. The store's state is
// reconciled from the files themselves (the manifest may be one finalize
// or prune behind), the open segment's .tmp is salvaged up to (excluding)
// resumeSeq into a finalized segment, and anything at or past resumeSeq is
// discarded because the resumed session re-emits it. A store whose
// archived windows end before resumeSeq-1 lost synced data and is refused
// loudly. meta must equal the store's recorded geometry.
func ResumeStoreWriter(dir string, meta Meta, policy StorePolicy, resumeSeq int) (*StoreWriter, *StoreRecovery, error) {
	if err := validateStore(meta, policy); err != nil {
		return nil, nil, err
	}
	if resumeSeq < 0 {
		return nil, nil, fmt.Errorf("archive: negative resume seq %d", resumeSeq)
	}
	fail := func(format string, args ...any) (*StoreWriter, *StoreRecovery, error) {
		return nil, nil, fmt.Errorf("archive: resume store: "+format, args...)
	}
	st, manifestErr, err := readStore(dir)
	if manifestErr != nil {
		return fail("%w", manifestErr)
	}
	if err != nil {
		return nil, nil, err
	}
	if st.meta != meta {
		return fail("store geometry %+v does not match checkpoint %+v", st.meta, meta)
	}
	rec := &StoreRecovery{Clean: true}
	var (
		segs     []StoreSegment
		next     = st.next
		prevLast = -1
		openTmp  *storeFile
	)
	for i, f := range st.files {
		switch f.label {
		case labelOK:
			segs = append(segs, *f.seg)
			prevLast = f.seg.LastSeq
		case labelPruned, labelStaleTmp, labelSalvage, labelManifestTmp:
			// Leftovers of an interrupted prune, salvage or manifest rewrite;
			// whatever they held is in a finalized file or re-emits.
			if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
				return fail("%w", err)
			}
			rec.note("removed %v", f)
		case labelAdoptable:
			entry, r, _, err := readEntry(filepath.Join(dir, f.name), f.index, false, true)
			switch {
			case err != nil:
				return fail("adopt %s: %w", f.name, err)
			case entry.Windows == 0:
				return fail("adopt %s: segment holds no windows", f.name)
			case r.meta != meta:
				return fail("segment %s geometry %+v differs from store %+v", f.name, r.meta, meta)
			case prevLast >= 0 && entry.FirstSeq != prevLast+1:
				return fail("segment %s starts at window %d, store ends at %d", f.name, entry.FirstSeq, prevLast)
			}
			segs = append(segs, entry)
			prevLast, next = entry.LastSeq, f.index+1
			rec.note("adopted %v (%d windows)", f, entry.Windows)
		case labelOpenTmp:
			openTmp = &st.files[i]
		default: // missing, size-mismatch, unexpected, tmp-ahead: not a crash this writer leaves
			return fail("%v", f)
		}
	}
	if prevLast >= resumeSeq {
		return fail("checkpoint resumes at window %d but store already finalized through %d", resumeSeq, prevLast)
	}
	if openTmp != nil {
		entry, discarded, err := salvageTmp(dir, openTmp.index, meta, st.anchor, prevLast, resumeSeq)
		if err != nil {
			return fail("salvage %s: %w", openTmp.name, err)
		}
		if entry.Windows == 0 {
			rec.note("%v held no pre-checkpoint windows; removed (%d windows re-emit)", openTmp, discarded)
		} else {
			segs = append(segs, entry)
			prevLast, next = entry.LastSeq, openTmp.index+1
			rec.note("salvaged %d windows from %s into segment %d (%d past-checkpoint windows re-emit)", entry.Windows, openTmp.name, openTmp.index, discarded)
		}
	}
	if prevLast != resumeSeq-1 {
		return fail("store ends at window %d but checkpoint resumes at %d: archived windows lost", prevLast, resumeSeq)
	}
	sw := &StoreWriter{
		dir: dir, meta: meta, policy: policy,
		anchor: st.anchor, next: next, segs: segs, expect: resumeSeq,
	}
	if err := sw.writeManifest(); err != nil {
		return nil, nil, err
	}
	return sw, rec, nil
}

// salvageTmp recovers the torn open segment's intact windows below
// resumeSeq into a finalized segment file with the same index, rewriting
// them through a FileWriter on a .salvage temporary. Windows at or past
// resumeSeq are discarded (the resumed session re-emits them) and counted;
// when none are below it the temporary is just removed and the returned
// entry is empty. A gap below resumeSeq means synced data was lost and is
// an error.
func salvageTmp(dir string, idx int, meta Meta, anchor time.Time, prevLast, resumeSeq int) (StoreSegment, int, error) {
	tmpPath := filepath.Join(dir, segFileName(idx, segTmpSuffix))
	tf, r, rep, err := openFile(tmpPath, true)
	if err != nil {
		return StoreSegment{}, 0, err
	}
	defer tf.Close()
	// Emission (seq) order; a Reader exposes event-time order.
	keep := make([]int, 0, len(r.segs))
	for i := range r.segs {
		if r.segs[i].Seq < resumeSeq {
			keep = append(keep, i)
		}
	}
	sort.Slice(keep, func(a, b int) bool { return r.segs[keep[a]].Seq < r.segs[keep[b]].Seq })
	discarded := len(r.segs) - len(keep)
	if len(keep) == 0 {
		return StoreSegment{}, discarded, os.Remove(tmpPath)
	}
	for k, i := range keep {
		if want := prevLast + 1 + k; r.segs[i].Seq != want {
			return StoreSegment{}, 0, fmt.Errorf("window %d where %d expected (checkpointed windows lost)", r.segs[i].Seq, want)
		}
	}
	out, err := createFile(filepath.Join(dir, segFileName(idx, segSalvageSuffix)),
		filepath.Join(dir, segFileName(idx, segFileSuffix)), meta, os.O_TRUNC)
	if err != nil {
		return StoreSegment{}, 0, err
	}
	defer out.Abort()
	for _, i := range keep {
		f, err := r.Frame(i)
		if err == nil {
			err = out.Append(r.segs[i].Seq, r.segs[i].Start, r.segs[i].End, f)
		}
		if err != nil {
			return StoreSegment{}, 0, err
		}
	}
	if anchor.IsZero() {
		anchor = rep.Anchor
	}
	out.SetAnchor(anchor)
	err = out.Close()
	if err == nil {
		err = os.Remove(tmpPath)
	}
	if err == nil {
		err = binfmt.SyncDir(dir)
	}
	return out.segment(idx), discarded, err
}
