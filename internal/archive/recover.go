package archive

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/llmprism/llmprism/internal/binfmt"
	"github.com/llmprism/llmprism/internal/flow"
)

// RecoveryReport describes what a salvage scan kept and what it discarded.
type RecoveryReport struct {
	// Clean is true when the archive opened strictly (valid manifest and
	// trailer) and no salvage was needed.
	Clean bool
	// Segments is the number of intact prefix segments salvaged (or, when
	// Clean, the number of manifested segments).
	Segments int
	// SalvagedBytes is the length of the valid prefix, including the
	// 32-byte header. LostBytes is the discarded tail; the two sum to the
	// file size.
	SalvagedBytes, LostBytes int64
	// Reason says why the scan stopped (empty when Clean, "end of data"
	// when the file ends exactly on a segment boundary with no trailer).
	Reason string
	// Anchor is the replay grid origin: the recorded trailer anchor when
	// Clean, otherwise reconstructed from the first salvaged segment's
	// window start (which lies on the original grid). Zero when nothing
	// was salvaged or the capture is unwindowed.
	Anchor time.Time
}

func (rep *RecoveryReport) String() string {
	if rep.Clean {
		return fmt.Sprintf("archive clean: %d segments, %d bytes", rep.Segments, rep.SalvagedBytes)
	}
	return fmt.Sprintf("archive recovered: %d segments salvaged (%d bytes), %d bytes discarded: %s",
		rep.Segments, rep.SalvagedBytes, rep.LostBytes, rep.Reason)
}

// Recover salvages the intact prefix of an unclosed or torn archive. It
// validates the header strictly, then scans segments front to back; each
// segment must carry a plausible header (seq strictly increasing, blob
// length within the file), its blob must begin with the frame magic and
// decode with a valid checksum, and the decoded row count must match the
// segment header. The scan stops at the first violation — everything
// before it is trustworthy, everything after is discarded — and the
// rebuilt manifest is returned as a Reader alongside a report of what was
// lost. Only a corrupt header is an error; a file holding zero intact
// segments recovers to an empty reader.
func Recover(r io.ReaderAt, size int64) (*Reader, *RecoveryReport, error) {
	meta, err := readHeader(r, size)
	if err != nil {
		return nil, nil, err
	}

	var (
		segs    []Segment
		off     = int64(headerSize)
		lastSeq = math.MinInt
		reason  = "end of data"
	)
	var sh [segHeaderSize]byte
scan:
	for {
		if size-off < segHeaderSize {
			if off != size {
				reason = fmt.Sprintf("truncated segment header at offset %d", off)
			}
			break
		}
		if _, err := r.ReadAt(sh[:], off); err != nil {
			reason = fmt.Sprintf("read segment header at offset %d: %v", off, err)
			break
		}
		seg := readSegment(binfmt.NewCursor("archive", sh[:]), false)
		seg.offset = off + segHeaderSize
		switch {
		case seg.Seq <= lastSeq:
			// Also what a manifest entry or trailer parses as after the
			// last segment of a cleanly closed file: the scan stops there
			// rather than misreading bookkeeping bytes as a segment.
			reason = fmt.Sprintf("segment seq %d not after previous at offset %d", seg.Seq, off)
			break scan
		case seg.length < int64(flow.FrameOverhead):
			reason = fmt.Sprintf("implausible frame length %d at offset %d", seg.length, off)
			break scan
		case seg.length > size-seg.offset:
			reason = fmt.Sprintf("segment at offset %d claims %d frame bytes, only %d remain", off, seg.length, size-seg.offset)
			break scan
		}
		var magic [4]byte
		if _, err := r.ReadAt(magic[:], seg.offset); err != nil || magic != flow.FrameMagic {
			reason = fmt.Sprintf("segment at offset %d does not hold a frame blob", off)
			break
		}
		f, err := flow.ReadFrame(io.NewSectionReader(r, seg.offset, seg.length))
		if err != nil {
			reason = fmt.Sprintf("segment at offset %d: %v", off, err)
			break
		}
		if f.Len() != seg.Rows {
			reason = fmt.Sprintf("segment at offset %d holds %d rows, header says %d", off, f.Len(), seg.Rows)
			break
		}
		segs = append(segs, seg)
		lastSeq = seg.Seq
		off = seg.offset + seg.length
	}

	rep := &RecoveryReport{
		Segments:      len(segs),
		SalvagedBytes: off,
		LostBytes:     size - off,
		Reason:        reason,
	}
	// The trailer's anchor went down with the tail; the first salvaged
	// window's start is on the same grid (anchor + k·hop), which is all a
	// replayed monitor needs to lay windows identically.
	if len(segs) > 0 && meta.Width > 0 {
		rep.Anchor = segs[0].Start
	}
	return newReader(r, size, meta, rep.Anchor, segs), rep, nil
}

// OpenReaderRecovering opens an archive leniently: a strict OpenReader
// first, and on any manifest/trailer failure a Recover salvage scan. The
// report says which path was taken and, for a salvage, what was lost.
func OpenReaderRecovering(r io.ReaderAt, size int64) (*Reader, *RecoveryReport, error) {
	if ar, err := OpenReader(r, size); err == nil {
		return ar, &RecoveryReport{
			Clean:         true,
			Segments:      ar.NumSegments(),
			SalvagedBytes: size,
			Anchor:        ar.Anchor(),
		}, nil
	}
	return Recover(r, size)
}
