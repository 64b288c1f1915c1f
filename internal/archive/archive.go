// Package archive implements the binary trace archive: a segmented,
// append-only container of flow.Frame snapshots with a manifest that lets a
// recorded monitor session be reopened and replayed deterministically.
//
// # Why a binary archive
//
// LLMPrism's diagnoses are only as trustworthy as the persisted traces they
// are recomputed from; the CSV/JSONL record codecs pay text parsing plus a
// full columnar rebuild (sort + path interning) on every load. An archive
// instead stores each monitor window's already-built frame in the binary
// columnar layout of flow.Frame.WriteTo — the interned path table written
// once per segment rather than once per row — so reopening a trace is a
// validated column copy. Replaying an archive through the streaming monitor
// reproduces the original reports bit for bit.
//
// # File layout
//
// All integers are little-endian. A version-1 archive is:
//
//	header (32 bytes):
//	  magic "LPA1" | flags u32 (0) | width i64 | hop i64 | lateness i64
//	segments (back to back, one per archived window):
//	  seq i64 | start i64 | end i64 | rows u32 | reserved u32 | frameLen u64
//	  frame bytes (flow.Frame binary layout, self-checksummed)
//	manifest (written by Close, one 48-byte entry per segment):
//	  seq i64 | start i64 | end i64 | rows u32 | reserved u32 |
//	  offset u64 | frameLen u64
//	trailer (32 bytes):
//	  anchor i64 | manifestOff u64 | segments u32 | manifestCRC u32 |
//	  reserved u32 | magic "LPAX"
//
// The header's width/hop/lateness record the monitor configuration the
// trace was windowed with (zero width marks an unwindowed capture, e.g. a
// collector dump); the trailer's anchor records the event-time grid origin
// so a replayed session lays its windows on exactly the original grid —
// including windows before the anchor that out-of-order stragglers opened.
// The magic carries the version digit; an incompatible layout bumps it.
//
// # Durability and recovery
//
// Segments are self-contained and self-checksummed: each frame blob
// carries its own CRC, the manifest carries one over its entries, and the
// reader verifies both plus every manifest offset before use. A truncated
// or bit-flipped archive fails to open loudly instead of replaying a
// silently different trace.
//
// Strict rejection is the right default for a file that claims to be
// complete, but captures cut off mid-write (a crashed recorder, a full
// disk, a copied-while-writing file) are the production norm, and their
// intact prefix is still trustworthy: every fully-written segment carries
// its own checksum. Recover rebuilds the manifest by scanning segments
// front to back — each segment header is sanity-checked, its frame blob
// must begin with the LPF1 magic and decode with a valid CRC, and segment
// seqs must increase — salvaging the longest valid prefix and reporting
// exactly where and why the scan stopped plus how many tail bytes were
// discarded. The trailer (and with it the recorded grid anchor) is lost on
// an unclosed archive; the salvage reconstructs the replay anchor from the
// first salvaged segment's start time, which lies on the original grid
// (every emitted window start is the anchor plus a whole number of hops),
// so a recovered prefix replays bit-identical to the same windows of the
// uninterrupted session. OpenReaderRecovering is the lenient entry point:
// strict open first, salvage scan on failure.
//
// # One capture path
//
// Writer and Reader are the container codec over any io.Writer and
// io.ReaderAt. On disk there is one unit of capture, the file-backed LPA1
// segment: FileWriter (file.go) appends to a temporary and commits it —
// trailer, then binfmt.Commit: fsync, rename, directory fsync — and a
// single-file archive (CreateFile), every segment of a rotating store
// (StoreWriter) and the resume salvage's rewrite are all that one writer;
// the store manifest is replaced through binfmt.WriteFile, the same commit
// behind a fixed temporary name. The read side mirrors
// it: one helper opens a file strictly or leniently (openFile), one folds
// its windows into a store-manifest entry (readEntry, segEntry.add), and a
// single-file archive reads as a one-segment store (FileStore). Recovery of
// a store directory is one classification of its files against the
// manifest (reconcile.go, which carries the label table) that OpenStore,
// OpenStoreRecovering and ResumeStoreWriter each act on in their own way.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
)

var (
	headerMagic  = [4]byte{'L', 'P', 'A', '1'}
	trailerMagic = [4]byte{'L', 'P', 'A', 'X'}
)

const (
	headerSize     = 4 + 4 + 8 + 8 + 8
	segHeaderSize  = 8 + 8 + 8 + 4 + 4 + 8
	manifestedSize = 8 + 8 + 8 + 4 + 4 + 8 + 8
	trailerSize    = 8 + 8 + 4 + 4 + 4 + 4
)

// Meta is the monitor configuration a trace was windowed with. Zero Width
// marks an unwindowed capture (a collector dump that has not been through
// the monitor grid).
type Meta struct {
	// Width, Hop and Lateness mirror the recording monitor's window
	// geometry; replay reconstructs a monitor from them.
	Width, Hop, Lateness time.Duration
}

// Segment locates one archived window.
type Segment struct {
	// Seq is the window's emission index in the recorded session.
	Seq int
	// Start and End bound the window: records with Start in [Start, End).
	Start, End time.Time
	// Rows is the number of flow records the window held (0 for an empty
	// window, archived to keep sequence numbers aligned).
	Rows int

	offset int64
	length int64
}

// Writer appends segments to an archive. Construct with NewWriter, append
// one segment per window in emission order, then Close to persist the
// manifest; an unclosed archive has no manifest and will not open.
type Writer struct {
	w      io.Writer
	n      int64
	segs   []Segment
	anchor int64
	closed bool
	err    error
}

// NewWriter writes the archive header and returns a writer appending to w.
// The caller keeps ownership of w (and closes any underlying file after
// Close).
func NewWriter(w io.Writer, meta Meta) (*Writer, error) {
	if meta.Width < 0 || meta.Hop < 0 || meta.Lateness < 0 {
		return nil, fmt.Errorf("archive: negative window geometry %+v", meta)
	}
	hdr := append(make([]byte, 0, headerSize), headerMagic[:]...)
	hdr = append(hdr, 0, 0, 0, 0) // flags
	aw := &Writer{w: w}
	if err := aw.write(appendMeta(hdr, meta)); err != nil {
		return nil, err
	}
	return aw, nil
}

func (aw *Writer) write(p []byte) error {
	if aw.err != nil {
		return aw.err
	}
	n, err := aw.w.Write(p)
	aw.n += int64(n)
	if err != nil {
		aw.err = fmt.Errorf("archive: write: %w", err)
	}
	return aw.err
}

// Append archives one window's frame. Windows must be appended in emission
// (seq) order — the order MonitorStream releases them.
func (aw *Writer) Append(seq int, start, end time.Time, f *flow.Frame) error {
	if aw.err != nil {
		return aw.err
	}
	if aw.closed {
		return fmt.Errorf("archive: append to closed writer")
	}
	if n := len(aw.segs); n > 0 && seq <= aw.segs[n-1].Seq {
		return fmt.Errorf("archive: segment seq %d not after previous %d", seq, aw.segs[n-1].Seq)
	}
	seg := Segment{
		Seq:    seq,
		Start:  start.UTC(),
		End:    end.UTC(),
		Rows:   f.Len(),
		offset: aw.n + segHeaderSize,
		length: f.EncodedLen(),
	}
	if err := aw.write(appendSegment(make([]byte, 0, segHeaderSize), seg, false)); err != nil {
		return err
	}
	// The encoded length is a closed-form function of the frame, so the
	// blob streams straight to the sink — no per-window buffering of the
	// serialized frame.
	wrote, err := f.WriteTo(sinkWriter{aw})
	if err != nil {
		if aw.err == nil {
			aw.err = err
		}
		return aw.err
	}
	if wrote != seg.length {
		aw.err = fmt.Errorf("archive: frame encoded %d bytes, EncodedLen said %d", wrote, seg.length)
		return aw.err
	}
	aw.segs = append(aw.segs, seg)
	return nil
}

// sinkWriter adapts the writer's error-latching write for Frame.WriteTo.
type sinkWriter struct{ aw *Writer }

func (s sinkWriter) Write(p []byte) (int, error) {
	if err := s.aw.write(p); err != nil {
		return 0, err
	}
	return len(p), nil
}

// SetAnchor records the event-time grid origin of the recorded session, so
// replay can pre-anchor its window grid instead of re-deriving it from the
// first replayed record (which diverges when a pre-anchor straggler window
// was archived first). The zero time means no anchor.
func (aw *Writer) SetAnchor(t time.Time) { aw.anchor = anchorNanos(t) }

// anchorNanos and nanosTime convert an anchor to and from its on-disk
// form: Unix nanoseconds, 0 for the zero time (no anchor).
func anchorNanos(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

func nanosTime(ns int64) time.Time {
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Segments returns how many segments have been appended.
func (aw *Writer) Segments() int { return len(aw.segs) }

// Bytes returns how many bytes have been written so far (header and
// appended segments; the manifest and trailer only after Close). The store
// layer's size-based rotation policy reads it.
func (aw *Writer) Bytes() int64 { return aw.n }

// Close writes the manifest and trailer. It does not close the underlying
// writer. A writer whose Close fails (or is never called) leaves an archive
// without a manifest, which OpenReader rejects and Recover salvages.
//
// Close is idempotent and sticky: the first call decides the outcome, and
// every later call returns that same outcome without writing anything —
// a writer that has latched an error never emits a trailer and never
// reports spurious success, and a successfully closed writer never emits
// a second trailer.
func (aw *Writer) Close() error {
	if aw.closed {
		return aw.err
	}
	aw.closed = true
	if aw.err != nil {
		return aw.err
	}
	manifestOff := aw.n
	manifest := make([]byte, 0, len(aw.segs)*manifestedSize)
	for _, s := range aw.segs {
		manifest = appendSegment(manifest, s, true)
	}
	if err := aw.write(manifest); err != nil {
		return err
	}
	trailer := make([]byte, trailerSize)
	binary.LittleEndian.PutUint64(trailer[0:], uint64(aw.anchor))
	binary.LittleEndian.PutUint64(trailer[8:], uint64(manifestOff))
	binary.LittleEndian.PutUint32(trailer[16:], uint32(len(aw.segs)))
	binary.LittleEndian.PutUint32(trailer[20:], crc32.ChecksumIEEE(manifest))
	copy(trailer[28:], trailerMagic[:])
	return aw.write(trailer)
}

// Reader reads an archive written by Writer. Construct with OpenReader.
type Reader struct {
	r      io.ReaderAt
	size   int64
	meta   Meta
	anchor time.Time
	segs   []Segment // event-time order: (Start, Seq)
}

// OpenReader parses and validates the archive's header, manifest and
// trailer. r must cover the whole archive (size bytes). Segments are
// exposed in event-time order — ascending (Start, Seq) — which is the
// order a deterministic replay pushes them.
func OpenReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < headerSize+trailerSize {
		return nil, fmt.Errorf("archive: %d bytes is too small for an archive", size)
	}
	meta, err := readHeader(r, size)
	if err != nil {
		return nil, err
	}
	trailer := make([]byte, trailerSize)
	if _, err := r.ReadAt(trailer, size-trailerSize); err != nil {
		return nil, fmt.Errorf("archive: read trailer: %w", err)
	}
	c := binfmt.NewCursor("archive", trailer)
	anchorNS, manifestOff := c.I64(), c.I64()
	count, wantCRC := int64(c.U32()), c.U32()
	c.U32() // reserved
	if [4]byte(c.Take(4)) != trailerMagic {
		return nil, fmt.Errorf("archive: missing trailer (archive not closed?)")
	}
	if manifestOff < headerSize || manifestOff+count*manifestedSize != size-trailerSize {
		return nil, fmt.Errorf("archive: manifest bounds [%d, %d) inconsistent with size %d", manifestOff, size-trailerSize, size)
	}
	manifest := make([]byte, count*manifestedSize)
	if _, err := r.ReadAt(manifest, manifestOff); err != nil {
		return nil, fmt.Errorf("archive: read manifest: %w", err)
	}
	if got := crc32.ChecksumIEEE(manifest); got != wantCRC {
		return nil, fmt.Errorf("archive: manifest checksum mismatch: file %08x, computed %08x", wantCRC, got)
	}
	c = binfmt.NewCursor("archive", manifest)
	segs := make([]Segment, count)
	for i := range segs {
		segs[i] = readSegment(c, true)
		s := &segs[i]
		if s.offset < headerSize+segHeaderSize || s.length < 0 || s.offset+s.length > manifestOff {
			return nil, fmt.Errorf("archive: segment %d blob [%d, %d) outside data region", i, s.offset, s.offset+s.length)
		}
		if i > 0 && s.Seq <= segs[i-1].Seq {
			return nil, fmt.Errorf("archive: segment seqs not increasing at %d", i)
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return newReader(r, size, meta, nanosTime(anchorNS), segs), nil
}

// appendSegment encodes an archived window's bookkeeping: as the segment
// header in front of its frame blob or, manifested, as the manifest entry
// that also records the blob's offset.
func appendSegment(b []byte, s Segment, manifested bool) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.Seq)))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Start.UnixNano()))
	b = binary.LittleEndian.AppendUint64(b, uint64(s.End.UnixNano()))
	b = binary.LittleEndian.AppendUint32(b, uint32(s.Rows))
	b = append(b, 0, 0, 0, 0) // reserved
	if manifested {
		b = binary.LittleEndian.AppendUint64(b, uint64(s.offset))
	}
	return binary.LittleEndian.AppendUint64(b, uint64(s.length))
}

// readSegment is appendSegment's inverse — the one parse of a window's
// bookkeeping, for the strict open (manifest entries) and the salvage scan
// (segment headers, whose blob follows at once) alike.
func readSegment(c *binfmt.Cursor, manifested bool) Segment {
	s := Segment{
		Seq:   int(c.I64()),
		Start: time.Unix(0, c.I64()).UTC(),
		End:   time.Unix(0, c.I64()).UTC(),
		Rows:  int(c.U32()),
	}
	c.U32() // reserved
	if manifested {
		s.offset = c.I64()
	}
	s.length = c.I64()
	return s
}

// readHeader parses and validates the 32-byte LPA1 header — the one parse
// the strict open and the salvage scan share.
func readHeader(r io.ReaderAt, size int64) (Meta, error) {
	if size < headerSize {
		return Meta{}, fmt.Errorf("archive: %d bytes is too small for an archive header", size)
	}
	hdr := make([]byte, headerSize)
	if _, err := r.ReadAt(hdr, 0); err != nil {
		return Meta{}, fmt.Errorf("archive: read header: %w", err)
	}
	c := binfmt.NewCursor("archive", hdr)
	if [4]byte(c.Take(4)) != headerMagic {
		return Meta{}, fmt.Errorf("archive: bad magic %q", hdr[:4])
	}
	c.U32() // flags
	meta := readMeta(c)
	if meta.Width < 0 || meta.Hop < 0 || meta.Lateness < 0 {
		return Meta{}, fmt.Errorf("archive: negative window geometry in header")
	}
	return meta, c.Done()
}

// appendMeta and readMeta are the window geometry as the LPA1 header and
// the LPS1 store manifest both carry it: width i64 | hop i64 | lateness i64.
func appendMeta(b []byte, meta Meta) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Width))
	b = binary.LittleEndian.AppendUint64(b, uint64(meta.Hop))
	return binary.LittleEndian.AppendUint64(b, uint64(meta.Lateness))
}

func readMeta(c *binfmt.Cursor) Meta {
	return Meta{
		Width:    time.Duration(c.I64()),
		Hop:      time.Duration(c.I64()),
		Lateness: time.Duration(c.I64()),
	}
}

// eventTimeLess is the replay order — ascending (Start, Seq) — within one
// file and across the files of a store alike. Seqs are unique within a
// session, so the order is total.
func eventTimeLess(a, b Segment) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.Seq < b.Seq
}

// newReader puts segs (in file order) into event-time order. Emission order
// already is event-time order for tumbling and hopped grids alike (window k
// starts before window k+1), so the sort is a stable identity in practice —
// but the manifest, not the write order, is the contract.
func newReader(r io.ReaderAt, size int64, meta Meta, anchor time.Time, segs []Segment) *Reader {
	sort.SliceStable(segs, func(i, j int) bool { return eventTimeLess(segs[i], segs[j]) })
	return &Reader{r: r, size: size, meta: meta, anchor: anchor, segs: segs}
}

// Meta returns the recorded monitor window geometry.
func (ar *Reader) Meta() Meta { return ar.meta }

// Anchor returns the recorded event-time grid origin (zero when the
// archive carries none, e.g. an unwindowed capture).
func (ar *Reader) Anchor() time.Time { return ar.anchor }

// NumSegments returns the number of archived windows.
func (ar *Reader) NumSegments() int { return len(ar.segs) }

// Segment returns the i-th segment in event-time order.
func (ar *Reader) Segment(i int) Segment { return ar.segs[i] }

// Frame decodes the i-th segment's frame. Every decode re-verifies the
// blob's checksum and invariants; the row count must match the manifest.
func (ar *Reader) Frame(i int) (*flow.Frame, error) {
	s := ar.segs[i]
	f, err := flow.ReadFrame(io.NewSectionReader(ar.r, s.offset, s.length))
	if err != nil {
		return nil, fmt.Errorf("archive: segment %d (window seq %d): %w", i, s.Seq, err)
	}
	if f.Len() != s.Rows {
		return nil, fmt.Errorf("archive: segment %d holds %d rows, manifest says %d", i, f.Len(), s.Rows)
	}
	return f, nil
}

// Replay decodes every segment in event-time order and hands it to fn,
// stopping at the first error. It is the deterministic replay source for
// the streaming monitor: pushing each frame's records in this order
// reproduces the recorded session's reports bit for bit.
func (ar *Reader) Replay(fn func(Segment, *flow.Frame) error) error {
	for i := range ar.segs {
		f, err := ar.Frame(i)
		if err != nil {
			return err
		}
		if err := fn(ar.segs[i], f); err != nil {
			return err
		}
	}
	return nil
}
