// Package binfmt is the persistence kernel under the binary formats: the
// strict decoding cursor LPK1 checkpoints, LPS1 store manifests and LPA1
// archive bookkeeping are read through, the sealed frame LPK1 and LPS1
// share (a 4-byte magic in front, a CRC32-IEEE of everything before it
// behind), and the one sequence that makes a written file durable under
// its final name.
//
// It owns how bytes are read safely and how a file is committed, not what
// the bytes mean: every layout stays documented, encoded and validated in
// its format's own package, and encoders append with encoding/binary
// directly. LPF1 frames stream through a chunked reader of their own
// (internal/flow) and LPW1 is eight lines of length prefix over them
// (internal/session); neither has a whole buffer to put a cursor on.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// Cursor is a strict sequential decoder over one buffer. Every read is
// bounds-checked; the first failure sticks, every later read returns zero,
// and the caller checks once at the end with Done, which also rejects
// bytes nobody read. format names the input in error messages.
type Cursor struct {
	format string
	b      []byte
	off    int
	err    error
}

// NewCursor returns a cursor at the start of b.
func NewCursor(format string, b []byte) *Cursor { return &Cursor{format: format, b: b} }

// Open checks the frame of a sealed buffer — long enough, led by magic,
// trailed by the CRC32-IEEE of everything before the trailer — and returns
// a cursor over the checked payload, positioned after the magic.
func Open(format string, b []byte, magic [4]byte) (*Cursor, error) {
	c := NewCursor(format, b)
	if len(b) < len(magic)+4 {
		c.Fail("%d bytes is too small", len(b))
		return nil, c.err
	}
	c.b = b[:len(b)-4]
	want := NewCursor(format, b[len(b)-4:]).U32()
	if [4]byte(c.Take(len(magic))) != magic {
		c.Fail("bad magic %q", b[:len(magic)])
	} else if got := crc32.ChecksumIEEE(c.b); got != want {
		c.Fail("checksum mismatch: file %08x, computed %08x", want, got)
	}
	return c, c.err
}

// Fail records a decoding error unless an earlier one already stands.
func (c *Cursor) Fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(c.format+": "+format, args...)
	}
}

// Err returns the first failure, nil while every read has succeeded.
func (c *Cursor) Err() error { return c.err }

// Left returns how many bytes remain unread.
func (c *Cursor) Left() int { return len(c.b) - c.off }

// Take returns the next n bytes, aliasing the buffer, or nil on failure.
func (c *Cursor) Take(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n < 0 || c.Left() < n {
		c.Fail("truncated at offset %d (need %d bytes, %d left)", c.off, n, c.Left())
		return nil
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p
}

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if p := c.Take(1); p != nil {
		return p[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if p := c.Take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if p := c.Take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

// I64 reads a little-endian two's-complement int64.
func (c *Cursor) I64() int64 { return int64(c.U64()) }

// F64 reads a float64 from its IEEE-754 bits.
func (c *Cursor) F64() float64 { return math.Float64frombits(c.U64()) }

// Count reads a u32 element count and rejects one whose elements, at unit
// bytes each at the least, could not fit in the bytes that remain — so a
// forged count fails here, before anything is allocated for it.
func (c *Cursor) Count(unit int, what string) int {
	n := int(c.U32())
	if c.err == nil && n > c.Left()/unit {
		c.Fail("%s count %d exceeds remaining %d bytes", what, n, c.Left())
		return 0
	}
	return n
}

// Done returns the first failure, or an error if unread bytes remain.
func (c *Cursor) Done() error {
	if c.err == nil && c.Left() != 0 {
		c.Fail("%d trailing bytes", c.Left())
	}
	return c.err
}

// Commit makes the fully written temporary f durable under its final name:
// fsync, close, rename onto path and — when syncDir — fsync of path's
// directory, without which the rename itself may not survive a power loss.
// f is closed on every return; on error the temporary stays on disk.
func Commit(f *os.File, path string, syncDir bool) error {
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err == nil && syncDir {
		err = SyncDir(filepath.Dir(path))
	}
	return err
}

// SyncDir fsyncs a directory, making the renames and unlinks inside it
// durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		if cerr := d.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

// WriteFile replaces path atomically with what write produces: the bytes
// go to path+".tmp" — a fixed name, truncated, so at most one stray
// temporary can ever exist per path — and Commit renames it into place. A
// reader sees the old content or the new, never a mix; when write or the
// commit fails the temporary is removed, and path is untouched unless the
// failure was the directory fsync after the rename.
func WriteFile(path string, syncDir bool, write func(io.Writer) error) error {
	f, err := os.OpenFile(path+".tmp", os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	if err = write(f); err != nil {
		f.Close()
	} else {
		err = Commit(f, path, syncDir)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}
