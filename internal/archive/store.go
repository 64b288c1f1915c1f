package archive

// Store: a rotating, indexed, multi-segment archive — a directory of
// time/size-rotated LPA1 segment files plus a CRC'd manifest, turning a
// recorded monitor session from a one-shot replay tape into a queryable,
// retention-bounded telemetry lake.
//
// # Directory layout
//
//	<dir>/store.llps          store manifest (atomic rewrite on every change)
//	<dir>/seg-00000001.llpa   finalized LPA1 segment archives, index order
//	<dir>/seg-00000002.llpa
//	<dir>/seg-00000003.llpa.tmp   the open (current) segment, if a writer is live
//
// Each segment file is a complete, independently-openable LPA1 archive (the
// exact format archive.Writer produces), holding a contiguous run of the
// session's windows; a plain single-file LPA1 archive is readable as a
// one-segment store via FileStore. The manifest carries, per segment, the
// window seq range, the event-time range, the byte size, and sorted
// distinct pair/switch summaries so time/pair/switch-bounded queries can
// prune whole segment files without opening them.
//
// # Manifest layout (LPS1)
//
// All integers little-endian:
//
//	magic "LPS1" | flags u32 (0)
//	width i64 | hop i64 | lateness i64 | anchor i64
//	next u32 (next segment file index) | count u32
//	count × entry:
//	  index u32 | windows u32
//	  firstSeq i64 | lastSeq i64 | minStart i64 | maxEnd i64 | bytes i64
//	  sumFlags u8 (bit0 pair overflow, bit1 switch overflow) | pad u8×3 (0)
//	  pairCount u32 | switchCount u32
//	  pairCount × pairKey u64 (sorted ascending, distinct; hi 32 bits = A,
//	  lo 32 = B of the canonical unordered pair, A <= B)
//	  switchCount × switch u64 (sorted ascending, distinct)
//	crc u32 (IEEE over everything before it)
//
// The decoder is strict and canonical: exact length consumption, bounded
// counts, windows == lastSeq-firstSeq+1, contiguous seq ranges across
// entries, sorted-distinct summaries, an overflow flag forcing an empty
// list, and a whole-payload CRC. An accepted manifest re-encodes to the
// identical bytes (fuzzed in CI next to the other wire surfaces). The
// magic carries the version digit; an incompatible layout bumps it, and
// unknown versions are rejected outright — the same policy as LPF/LPA/LPK.
//
// # Rotation, retention, durability
//
// StoreWriter appends windows to the current segment's .tmp file (a
// FileWriter) and rotates lazily: when an Append finds the current segment
// already past a rotation bound (windows, bytes, or event-time span), it
// finalizes that segment first — FileWriter.Close: manifest + trailer
// written, then binfmt.Commit (file fsynced, renamed to its final name,
// directory fsynced) — rewrites the store manifest atomically
// (binfmt.WriteFile) and starts a fresh one. Rotating before the new append
// (rather than after) keeps the crash contract aligned with the session
// checkpoint: a segment is only ever finalized between the checkpoint of its
// last window and the append of the next, so salvage-at-resume never has to
// un-write a finalized file. Retention prunes the oldest finalized segments (never
// the newest) once the finalized count or byte total exceeds the policy.
//
// A crashed writer leaves finalized segments, a possibly stale manifest
// (at most one finalize or prune behind the files), and the torn .tmp.
// ResumeStoreWriter reconciles all three from the files themselves (the
// labels and what each opener does with them are in reconcile.go),
// salvages the .tmp's intact windows below the session checkpoint's resume
// seq into a finalized segment, and continues appending — so a resumed
// store holds exactly the uninterrupted session's window sequence.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
)

var storeMagic = [4]byte{'L', 'P', 'S', '1'}

const (
	// StoreManifestName is the manifest file's name inside a store
	// directory.
	StoreManifestName = "store.llps"
	// MaxStoreSummary bounds each per-segment pair/switch summary list; a
	// segment with more distinct keys is marked overflow and matches every
	// query (pruning is an optimization, never a filter).
	MaxStoreSummary = 4096
	// maxStoreSegments bounds the manifest entry count a decoder accepts.
	maxStoreSegments = 1 << 20

	storeHeaderSize   = 4 + 4 + 8 + 8 + 8 + 8 + 4 + 4
	storeEntryFixed   = 4 + 4 + 8 + 8 + 8 + 8 + 8 + 1 + 3 + 4 + 4
	storeTrailerSize  = 4
	segFilePrefix     = "seg-"
	segFileSuffix     = ".llpa"
	segTmpSuffix      = ".llpa.tmp"
	segSalvageSuffix  = ".llpa.salvage"
	sumFlagPairOver   = 1 << 0
	sumFlagSwitchOver = 1 << 1
)

// StorePolicy sets a store's rotation and retention bounds. The zero value
// never rotates (one segment until Close) and never prunes.
type StorePolicy struct {
	// RotateWindows closes the current segment once it holds this many
	// windows (0 = no window bound).
	RotateWindows int
	// RotateBytes closes the current segment once its file reaches this
	// many bytes (0 = no size bound).
	RotateBytes int64
	// RotateSpan closes the current segment once its windows cover this
	// much event time (0 = no time bound).
	RotateSpan time.Duration
	// RetainSegments keeps at most this many finalized segments, pruning
	// the oldest (0 = keep all). The newest finalized segment is never
	// pruned.
	RetainSegments int
	// RetainBytes keeps the finalized segments within this byte total,
	// pruning the oldest (0 = unbounded). The newest finalized segment is
	// never pruned.
	RetainBytes int64
}

// validateStore checks what both StoreWriter constructors require: a
// windowed geometry and a non-negative policy.
func validateStore(meta Meta, p StorePolicy) error {
	if meta.Width <= 0 || meta.Hop <= 0 || meta.Hop > meta.Width || meta.Lateness < 0 {
		return fmt.Errorf("archive: store requires windowed geometry, got %+v", meta)
	}
	if p.RotateWindows < 0 || p.RotateBytes < 0 || p.RotateSpan < 0 ||
		p.RetainSegments < 0 || p.RetainBytes < 0 {
		return fmt.Errorf("archive: negative store policy %+v", p)
	}
	return nil
}

// PairKey packs a canonical flow pair into the manifest's summary key.
func PairKey(p flow.Pair) uint64 { return uint64(p.A)<<32 | uint64(p.B) }

// StoreSegment describes one segment file of a store, as indexed by the
// manifest: which windows it holds, what event-time range they cover, and
// the pair/switch summaries queries prune on.
type StoreSegment struct {
	// Index is the segment file's number (seg-%08d.llpa), strictly
	// increasing across the store's life — retention pruning never reuses
	// an index.
	Index int
	// Windows is how many archived windows the segment holds.
	Windows int
	// FirstSeq and LastSeq bound the contiguous window seq range.
	FirstSeq, LastSeq int
	// MinStart and MaxEnd bound the segment's event-time coverage.
	MinStart, MaxEnd time.Time
	// Bytes is the finalized segment file's exact size.
	Bytes int64
	// PairOverflow / SwitchOverflow mark a summary that exceeded
	// MaxStoreSummary distinct keys; an overflowed summary matches every
	// query.
	PairOverflow, SwitchOverflow bool
	// Pairs and Switches are the sorted distinct summary keys (nil when
	// the corresponding overflow flag is set).
	Pairs, Switches []uint64

	// file overrides the index-derived file name (single-file stores and
	// salvaged temporaries); salvage marks a file that must be opened with
	// the salvage scanner rather than the strict reader.
	file    string
	salvage bool
}

// File returns the segment's file name within the store directory.
func (s *StoreSegment) File() string {
	if s.file != "" {
		return s.file
	}
	return fmt.Sprintf("%s%08d%s", segFilePrefix, s.Index, segFileSuffix)
}

// MayContainPair reports whether the segment's summary admits the pair.
func (s *StoreSegment) MayContainPair(p flow.Pair) bool {
	if s.PairOverflow {
		return true
	}
	return containsKey(s.Pairs, PairKey(p))
}

// MayContainSwitch reports whether the segment's summary admits the switch.
func (s *StoreSegment) MayContainSwitch(sw flow.SwitchID) bool {
	if s.SwitchOverflow {
		return true
	}
	return containsKey(s.Switches, uint64(sw))
}

func containsKey(keys []uint64, k uint64) bool {
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= k })
	return i < len(keys) && keys[i] == k
}

// Query bounds a store scan. Zero-value fields are unbounded; a segment is
// selected when every set bound may match it.
type Query struct {
	// From and To bound event time: windows (and rows) whose start falls
	// in [From, To). A zero time leaves that side open.
	From, To time.Time
	// Pair restricts to flows between this canonical endpoint pair.
	Pair *flow.Pair
	// Switch restricts to flows whose path traverses this switch.
	Switch *flow.SwitchID
}

// MatchSegment reports whether the segment may hold matching rows — the
// manifest-level pruning test. False means the segment file can be skipped
// without opening it.
func (q Query) MatchSegment(s StoreSegment) bool {
	if s.Windows == 0 {
		return false
	}
	if !q.From.IsZero() && !s.MaxEnd.After(q.From) {
		return false
	}
	if !q.To.IsZero() && !s.MinStart.Before(q.To) {
		return false
	}
	if q.Pair != nil && !s.MayContainPair(*q.Pair) {
		return false
	}
	if q.Switch != nil && !s.MayContainSwitch(*q.Switch) {
		return false
	}
	return true
}

// OverlapsWindow reports whether the query's time bounds overlap the
// archived window.
func (q Query) OverlapsWindow(s Segment) bool {
	if !q.From.IsZero() && !s.End.After(q.From) {
		return false
	}
	if !q.To.IsZero() && !s.Start.Before(q.To) {
		return false
	}
	return true
}

// MatchRow reports whether row i of f satisfies every set bound — the
// exact row-level test behind the summary pruning.
func (q Query) MatchRow(f *flow.Frame, i int) bool {
	if !q.From.IsZero() && f.StartNanos(i) < q.From.UnixNano() {
		return false
	}
	if !q.To.IsZero() && f.StartNanos(i) >= q.To.UnixNano() {
		return false
	}
	if q.Pair != nil && flow.MakePair(f.Src(i), f.Dst(i)) != *q.Pair {
		return false
	}
	if q.Switch != nil {
		found := false
		for _, sw := range f.Switches(i) {
			if sw == *q.Switch {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// encodeStoreManifest serializes the manifest; the layout is documented at
// the top of this file.
func encodeStoreManifest(meta Meta, anchor int64, next int, segs []StoreSegment) []byte {
	n := storeHeaderSize + storeTrailerSize
	for i := range segs {
		n += storeEntryFixed + 8*len(segs[i].Pairs) + 8*len(segs[i].Switches)
	}
	b := make([]byte, 0, n)
	b = append(b, storeMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = appendMeta(b, meta)
	b = binary.LittleEndian.AppendUint64(b, uint64(anchor))
	b = binary.LittleEndian.AppendUint32(b, uint32(next))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(segs)))
	for i := range segs {
		s := &segs[i]
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Index))
		b = binary.LittleEndian.AppendUint32(b, uint32(s.Windows))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.FirstSeq)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(s.LastSeq)))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.MinStart.UnixNano()))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.MaxEnd.UnixNano()))
		b = binary.LittleEndian.AppendUint64(b, uint64(s.Bytes))
		var flags byte
		if s.PairOverflow {
			flags |= sumFlagPairOver
		}
		if s.SwitchOverflow {
			flags |= sumFlagSwitchOver
		}
		b = append(b, flags, 0, 0, 0)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Pairs)))
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Switches)))
		for _, keys := range [][]uint64{s.Pairs, s.Switches} {
			for _, k := range keys {
				b = binary.LittleEndian.AppendUint64(b, k)
			}
		}
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	return b
}

// decodeStoreManifest parses and validates a manifest strictly; every
// accepted input re-encodes to the identical bytes.
func decodeStoreManifest(b []byte) (meta Meta, anchor int64, next int, segs []StoreSegment, err error) {
	c, err := binfmt.Open("archive: store manifest", b, storeMagic)
	if err != nil {
		return Meta{}, 0, 0, nil, err
	}
	if flags := c.U32(); flags != 0 {
		c.Fail("unknown flags %#x", flags)
	}
	meta = readMeta(c)
	if meta.Width <= 0 || meta.Hop <= 0 || meta.Hop > meta.Width || meta.Lateness < 0 {
		c.Fail("invalid window geometry %+v", meta)
	}
	anchor = c.I64()
	next = int(c.U32())
	if next < 1 {
		c.Fail("next segment index %d below 1", next)
	}
	count := c.Count(storeEntryFixed, "entry")
	if count > maxStoreSegments {
		c.Fail("entry count %d exceeds limit %d", count, maxStoreSegments)
	}
	segs = make([]StoreSegment, 0, count)
	for e := 0; e < count && c.Err() == nil; e++ {
		s := StoreSegment{
			Index:    int(c.U32()),
			Windows:  int(c.U32()),
			FirstSeq: int(c.I64()),
			LastSeq:  int(c.I64()),
			MinStart: time.Unix(0, c.I64()).UTC(),
			MaxEnd:   time.Unix(0, c.I64()).UTC(),
			Bytes:    c.I64(),
		}
		flags := c.U8()
		pad := c.Take(3)
		pairCount := int(c.U32())
		switchCount := int(c.U32())
		if c.Err() != nil {
			break
		}
		s.PairOverflow = flags&sumFlagPairOver != 0
		s.SwitchOverflow = flags&sumFlagSwitchOver != 0
		switch {
		case flags&^byte(sumFlagPairOver|sumFlagSwitchOver) != 0:
			c.Fail("entry %d: unknown summary flags %#x", e, flags)
		case pad[0] != 0 || pad[1] != 0 || pad[2] != 0:
			c.Fail("entry %d: nonzero padding", e)
		case s.Index < 1:
			c.Fail("entry %d: segment index %d below 1", e, s.Index)
		case len(segs) > 0 && s.Index <= segs[len(segs)-1].Index:
			c.Fail("entry %d: segment index %d not after previous %d", e, s.Index, segs[len(segs)-1].Index)
		case s.Windows < 1:
			c.Fail("entry %d: empty segment", e)
		case s.FirstSeq < 0 || s.LastSeq-s.FirstSeq+1 != s.Windows:
			c.Fail("entry %d: seq range %d..%d inconsistent with %d windows", e, s.FirstSeq, s.LastSeq, s.Windows)
		case len(segs) > 0 && s.FirstSeq != segs[len(segs)-1].LastSeq+1:
			c.Fail("entry %d: seq %d not contiguous with previous segment's %d", e, s.FirstSeq, segs[len(segs)-1].LastSeq)
		case !s.MinStart.Before(s.MaxEnd):
			c.Fail("entry %d: empty event-time range", e)
		case s.Bytes < int64(headerSize+trailerSize):
			c.Fail("entry %d: implausible segment size %d", e, s.Bytes)
		case s.PairOverflow && pairCount != 0, s.SwitchOverflow && switchCount != 0:
			c.Fail("entry %d: overflowed summary carries keys", e)
		case pairCount > MaxStoreSummary || switchCount > MaxStoreSummary:
			c.Fail("entry %d: summary counts %d/%d exceed limit %d", e, pairCount, switchCount, MaxStoreSummary)
		case 8*(pairCount+switchCount) > c.Left():
			c.Fail("entry %d: truncated summaries", e)
		}
		s.Pairs = decodeKeys(c, pairCount, e, "pair")
		for _, k := range s.Pairs {
			if k>>32 > k&0xffffffff {
				c.Fail("entry %d: non-canonical pair key %#x", e, k)
			}
		}
		s.Switches = decodeKeys(c, switchCount, e, "switch")
		segs = append(segs, s)
	}
	if len(segs) > 0 && next <= segs[len(segs)-1].Index {
		c.Fail("next segment index %d not past last entry's %d", next, segs[len(segs)-1].Index)
	}
	if err := c.Done(); err != nil {
		return Meta{}, 0, 0, nil, err
	}
	return meta, anchor, next, segs, nil
}

// decodeKeys reads one summary list of n keys — the caller has checked
// that they fit in the bytes that remain — and fails the cursor unless
// they are sorted ascending and distinct. No keys decode to nil.
func decodeKeys(c *binfmt.Cursor, n, entry int, kind string) []uint64 {
	if n == 0 || c.Err() != nil {
		return nil
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = c.U64()
		if i > 0 && keys[i] <= keys[i-1] {
			c.Fail("entry %d: %s summary not sorted-distinct", entry, kind)
		}
	}
	return keys
}

// ReadStoreManifest reads and strictly decodes a store directory's
// manifest, without checking the segment files behind it — the cheap
// metadata view the daemon's query surface serves while a writer is live
// (the manifest only ever describes finalized segments).
func ReadStoreManifest(dir string) (Meta, time.Time, []StoreSegment, error) {
	b, err := os.ReadFile(filepath.Join(dir, StoreManifestName))
	if err != nil {
		return Meta{}, time.Time{}, nil, err
	}
	meta, anchor, _, segs, err := decodeStoreManifest(b)
	if err != nil {
		return Meta{}, time.Time{}, nil, err
	}
	return meta, nanosTime(anchor), segs, nil
}
