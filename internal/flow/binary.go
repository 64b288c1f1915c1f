package flow

// Binary frame codec: the persistence form of a Frame used by the archive
// subsystem (internal/archive). Unlike the CSV/JSONL record codecs, which
// pay text parsing plus a full FrameBuilder sort on every load, this format
// serializes the frame's columns directly — ids, starts, durs, addrs,
// bytes, row→path ids — with the interned PathTable written once per frame
// instead of once per row, so decoding is a validated column copy and an
// index rebuild with no parsing. The rows arrive in canonical order, so the
// pair index is one scan; the start index is the one part that reorders,
// and it is a radix sort, linear in the rows (see startIndex).
//
// Layout (all integers little-endian):
//
//	magic "LPF1" | rows u32 | paths u32 | pathSwitches u32
//	ids      rows × u64
//	starts   rows × i64        (UnixNano, UTC)
//	durs     rows × i64
//	srcs     rows × u32
//	dsts     rows × u32
//	bytes    rows × i64
//	pathIDs  rows × i32        (NoPath = -1)
//	pathOffs (paths+1) × u32   (present only when paths > 0)
//	switches pathSwitches × i64
//	crc32    u32               (IEEE, over everything above)
//
// The magic carries the version ("LPF" + format digit); an incompatible
// future layout bumps the digit. ReadFrame accepts only frames in canonical
// column order — rows sorted by (endpoint pair, start, id), path offsets
// strictly increasing, path ids in range — and verifies the trailing CRC,
// so a decoded frame upholds every Frame invariant and a truncated or
// bit-flipped file fails loudly instead of corrupting diagnoses.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// frameMagic identifies version 1 of the binary frame layout.
var frameMagic = [4]byte{'L', 'P', 'F', '1'}

// FrameMagic is the frame magic as seen by external scanners: the archive
// salvage scan peeks for it to tell a segment blob from torn bookkeeping
// bytes before paying for a full decode.
var FrameMagic = frameMagic

// frameHeaderSize is magic + rows + paths + pathSwitches.
const frameHeaderSize = 4 + 4 + 4 + 4

// FrameOverhead is the minimum encoded size of any frame: header plus the
// trailing checksum. No valid frame blob is shorter.
const FrameOverhead = frameHeaderSize + 4

// readChunk bounds how much decode memory a declared column length can
// commit before the bytes actually arrive, so a forged header claiming
// billions of rows fails at EOF instead of out of memory.
const readChunk = 1 << 20

// frameRowSize is the per-row byte cost across all seven columns.
const frameRowSize = 8 + 8 + 8 + 4 + 4 + 8 + 4

// EncodedLen returns the exact byte length WriteTo produces for the frame —
// a closed-form function of the row, path and switch counts, so callers
// that need a length prefix (the archive's segment headers) can write it
// before streaming the frame instead of buffering the encoding.
func (f *Frame) EncodedLen() int64 {
	sz := int64(frameHeaderSize) + int64(len(f.ids))*frameRowSize + 4
	if p := int64(f.table.NumPaths()); p > 0 {
		sz += (p+1)*4 + int64(len(f.table.switches))*8
	}
	return sz
}

// WriteTo serializes the frame in the binary columnar layout, returning the
// number of bytes written. It implements io.WriterTo. The encoding is
// deterministic: equal frames produce identical bytes.
func (f *Frame) WriteTo(w io.Writer) (int64, error) {
	crc := crc32.NewIEEE()
	cw := &countingWriter{w: io.MultiWriter(w, crc)}

	n := len(f.ids)
	paths := f.table.NumPaths()
	if uint64(n) > math.MaxUint32 || uint64(paths) > math.MaxUint32 || uint64(len(f.table.switches)) > math.MaxUint32 {
		return 0, fmt.Errorf("flow: frame too large for binary layout (%d rows, %d paths)", n, paths)
	}
	// Refuse to persist values the decoder (and every text codec) rejects:
	// a frame that encodes but can never decode is an archive time bomb.
	if err := f.checkValues(); err != nil {
		return 0, err
	}
	hdr := make([]byte, frameHeaderSize)
	copy(hdr, frameMagic[:])
	binary.LittleEndian.PutUint32(hdr[4:], uint32(n))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(paths))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(f.table.switches)))
	if _, err := cw.Write(hdr); err != nil {
		return cw.n, fmt.Errorf("flow: write frame header: %w", err)
	}

	// Columns stream through one bounded scratch buffer: element
	// conversion happens inside the chunk loop, so no full-length
	// temporary slice is ever materialized.
	buf := make([]byte, 0, readChunk)
	var err error
	writeCols := func() error {
		if buf, err = writeCol(cw, buf, f.ids); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.starts); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.durs); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.srcs); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.dsts); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.nbytes); err != nil {
			return err
		}
		if buf, err = writeCol(cw, buf, f.paths); err != nil {
			return err
		}
		if paths > 0 {
			if buf, err = writeCol(cw, buf, f.table.offs); err != nil {
				return err
			}
			if buf, err = writeCol(cw, buf, f.table.switches); err != nil {
				return err
			}
		}
		return nil
	}
	if err := writeCols(); err != nil {
		return cw.n, fmt.Errorf("flow: write frame column: %w", err)
	}
	sum := binary.LittleEndian.AppendUint32(nil, crc.Sum32())
	if _, err := w.Write(sum); err != nil {
		return cw.n, fmt.Errorf("flow: write frame checksum: %w", err)
	}
	return cw.n + 4, nil
}

// checkValues is the domain validation the text codecs apply, shared by
// both directions of the binary codec: negative durations, byte counts and
// switch ids poison Gbps and watermark math downstream, so the decoder
// rejects them, and the encoder refuses to write what it would reject.
func (f *Frame) checkValues() error {
	for i := range f.durs {
		if f.durs[i] < 0 {
			return fmt.Errorf("flow: frame row %d: negative duration %dns", i, f.durs[i])
		}
		if f.nbytes[i] < 0 {
			return fmt.Errorf("flow: frame row %d: negative bytes %d", i, f.nbytes[i])
		}
	}
	for i, s := range f.table.switches {
		if s < 0 {
			return fmt.Errorf("flow: frame path table entry %d: negative switch id %d", i, s)
		}
	}
	return nil
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// column is the element types a frame column holds: 32- or 64-bit integers,
// stored little-endian at their own width.
type column interface {
	~int32 | ~uint32 | ~int64 | ~uint64
}

// writeCol streams one fixed-width column through the shared scratch
// buffer, readChunk bytes at a time, converting elements in place. It
// returns the (possibly re-capacitied) buffer for reuse.
func writeCol[T column](w io.Writer, buf []byte, vs []T) ([]byte, error) {
	var zero T
	size := binary.Size(zero)
	for lo := 0; lo < len(vs); {
		hi := min(lo+readChunk/size, len(vs))
		buf = buf[:0]
		if size == 4 {
			for _, v := range vs[lo:hi] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
			}
		} else {
			for _, v := range vs[lo:hi] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
			}
		}
		if _, err := w.Write(buf); err != nil {
			return buf, err
		}
		lo = hi
	}
	return buf, nil
}

// ReadFrame decodes one frame written by Frame.WriteTo. The decoder is
// strict: it verifies the magic, the trailing CRC, path-id ranges, the
// path-table offsets and the canonical (pair, start, id) row order, so the
// returned frame is bit-identical — columns, path table and derived indexes
// — to the frame that was written, and arbitrary input can never produce a
// frame that violates the Frame invariants.
func ReadFrame(r io.Reader) (*Frame, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	hdr := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(tr, hdr); err != nil {
		return nil, fmt.Errorf("flow: read frame header: %w", err)
	}
	if [4]byte(hdr[:4]) != frameMagic {
		return nil, fmt.Errorf("flow: bad frame magic %q", hdr[:4])
	}
	rows64 := int64(binary.LittleEndian.Uint32(hdr[4:]))
	paths64 := int64(binary.LittleEndian.Uint32(hdr[8:]))
	nswitches64 := int64(binary.LittleEndian.Uint32(hdr[12:]))
	if rows64 > math.MaxInt || paths64 > math.MaxInt || nswitches64 > math.MaxInt {
		// Only reachable on 32-bit platforms, where a u32 count can
		// exceed int; reject instead of wrapping negative into make().
		return nil, fmt.Errorf("flow: frame counts (%d rows, %d paths, %d switches) exceed platform limits", rows64, paths64, nswitches64)
	}
	rows, paths, nswitches := int(rows64), int(paths64), int(nswitches64)
	if paths > 0 && (nswitches < paths) {
		// Every interned path holds at least one switch.
		return nil, fmt.Errorf("flow: frame declares %d paths over %d switches", paths, nswitches)
	}
	if paths == 0 && nswitches != 0 {
		return nil, fmt.Errorf("flow: frame declares %d switches with no paths", nswitches)
	}

	d := &frameDecoder{r: tr}
	f := &Frame{
		ids:    readCol[uint64](d, rows),
		starts: readCol[int64](d, rows),
		durs:   readCol[int64](d, rows),
		srcs:   readCol[Addr](d, rows),
		dsts:   readCol[Addr](d, rows),
		nbytes: readCol[int64](d, rows),
		paths:  readCol[PathID](d, rows),
	}
	var offs []uint32
	if paths > 0 {
		offs = readCol[uint32](d, paths+1)
		f.table.switches = readCol[SwitchID](d, nswitches)
	}
	if d.err != nil {
		return nil, fmt.Errorf("flow: read frame columns: %w", d.err)
	}
	want := crc.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("flow: read frame checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("flow: frame checksum mismatch: file %08x, computed %08x", got, want)
	}

	if err := f.checkValues(); err != nil {
		return nil, err
	}

	// Path table: offsets must start at 0, increase strictly (no empty
	// interned path exists — empty paths are NoPath) and end at the switch
	// count.
	if paths > 0 {
		if offs[0] != 0 {
			return nil, fmt.Errorf("flow: frame path offsets start at %d", offs[0])
		}
		f.table.offs = make([]int32, paths+1)
		for i := 1; i <= paths; i++ {
			if offs[i] <= offs[i-1] || offs[i] > uint32(nswitches) {
				return nil, fmt.Errorf("flow: frame path offset %d out of order", i)
			}
			f.table.offs[i] = int32(offs[i])
		}
		if int(offs[paths]) != nswitches {
			return nil, fmt.Errorf("flow: frame path offsets cover %d of %d switches", offs[paths], nswitches)
		}
	}
	for i, id := range f.paths {
		if id != NoPath && (id < 0 || int(id) >= paths) {
			return nil, fmt.Errorf("flow: frame row %d references path %d of %d", i, id, paths)
		}
	}
	// Canonical row order: (pair, start, id) non-decreasing, exactly the
	// order FrameBuilder.Build establishes. The derived indexes below
	// assume it.
	for i := 1; i < rows; i++ {
		p, q := MakePair(f.srcs[i-1], f.dsts[i-1]), MakePair(f.srcs[i], f.dsts[i])
		if p.A != q.A || p.B != q.B {
			if q.A < p.A || (q.A == p.A && q.B < p.B) {
				return nil, fmt.Errorf("flow: frame rows %d..%d not in canonical pair order", i-1, i)
			}
			continue
		}
		if f.starts[i] < f.starts[i-1] ||
			(f.starts[i] == f.starts[i-1] && f.ids[i] < f.ids[i-1]) {
			return nil, fmt.Errorf("flow: frame rows %d..%d not in canonical (start, id) order", i-1, i)
		}
	}
	f.buildIndexes(newRadixSort(rows))
	return f, nil
}

// frameDecoder reads fixed-width columns, growing allocations with the
// bytes actually read (readChunk at a time) so declared lengths are
// commitments the input must honor, not allocations it gets for free.
type frameDecoder struct {
	r   io.Reader
	buf []byte
	err error
}

// block reads exactly n bytes into the decoder's scratch buffer.
func (d *frameDecoder) block(n int) []byte {
	if d.err != nil {
		return nil
	}
	if cap(d.buf) < n && n <= readChunk {
		d.buf = make([]byte, n)
	}
	if n <= readChunk {
		d.buf = d.buf[:cap(d.buf)][:n]
		if _, err := io.ReadFull(d.r, d.buf); err != nil {
			d.err = err
			return nil
		}
		return d.buf
	}
	out := make([]byte, 0, readChunk)
	for len(out) < n {
		m := min(n-len(out), readChunk)
		off := len(out)
		out = append(out, make([]byte, m)...)
		if _, err := io.ReadFull(d.r, out[off:]); err != nil {
			d.err = err
			return nil
		}
	}
	return out
}

// readCol reads one n-element column, converting each little-endian
// element straight into the column's own type.
func readCol[T column](d *frameDecoder, n int) []T {
	var zero T
	size := binary.Size(zero)
	out := make([]T, 0, min(n, readChunk/size))
	for len(out) < n {
		m := min(n-len(out), readChunk/size)
		b := d.block(m * size)
		if d.err != nil {
			return nil
		}
		if size == 4 {
			for i := 0; i < m; i++ {
				out = append(out, T(binary.LittleEndian.Uint32(b[i*4:])))
			}
		} else {
			for i := 0; i < m; i++ {
				out = append(out, T(binary.LittleEndian.Uint64(b[i*8:])))
			}
		}
	}
	return out
}
