package binfmt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// getters lists every fixed-width read with its width; each returns
// whether the value it read was the zero value.
var getters = []struct {
	name string
	size int
	zero func(*Cursor) bool
}{
	{"U8", 1, func(c *Cursor) bool { return c.U8() == 0 }},
	{"U32", 4, func(c *Cursor) bool { return c.U32() == 0 }},
	{"U64", 8, func(c *Cursor) bool { return c.U64() == 0 }},
	{"I64", 8, func(c *Cursor) bool { return c.I64() == 0 }},
	{"F64", 8, func(c *Cursor) bool { return c.F64() == 0 }},
	{"Take", 5, func(c *Cursor) bool { return c.Take(5) == nil }},
}

func TestCursorReadsLittleEndian(t *testing.T) {
	b := []byte{0x7f}
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<63|5)
	b = binary.LittleEndian.AppendUint64(b, uint64(1<<63|5))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(-2.5))
	b = append(b, "tail"...)
	c := NewCursor("test", b)
	if v := c.U8(); v != 0x7f {
		t.Errorf("U8 = %#x", v)
	}
	if v := c.U32(); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := c.U64(); v != 1<<63|5 {
		t.Errorf("U64 = %#x", v)
	}
	if v := c.I64(); v != math.MinInt64+5 {
		t.Errorf("I64 = %d", v)
	}
	if v := c.F64(); v != -2.5 {
		t.Errorf("F64 = %v", v)
	}
	if c.Left() != 4 {
		t.Errorf("Left = %d, want 4", c.Left())
	}
	if err := c.Done(); err == nil || !strings.Contains(err.Error(), "test: 4 trailing bytes") {
		t.Errorf("Done with unread bytes = %v", err)
	}
	c = NewCursor("test", b[len(b)-4:])
	if p := c.Take(4); string(p) != "tail" {
		t.Errorf("Take = %q", p)
	}
	if err := c.Done(); err != nil {
		t.Errorf("Done after full consumption = %v", err)
	}
}

func TestCursorOneByteShort(t *testing.T) {
	for _, g := range getters {
		t.Run(g.name, func(t *testing.T) {
			b := make([]byte, 3+g.size-1)
			for i := range b {
				b[i] = 0xff
			}
			c := NewCursor("fmt", b)
			c.Take(3)
			if !g.zero(c) {
				t.Error("short read returned a non-zero value")
			}
			want := "fmt: truncated at offset 3 (need " + itoa(g.size) + " bytes, " + itoa(g.size-1) + " left)"
			if err := c.Err(); err == nil || err.Error() != want {
				t.Fatalf("Err = %v, want %q", err, want)
			}
			// The failure sticks: nothing is consumed afterwards, every
			// getter reads zero — even one that would fit — and a later
			// Fail does not replace the first error.
			if c.Left() != g.size-1 {
				t.Errorf("failed read consumed bytes: %d left", c.Left())
			}
			for _, again := range getters {
				if !again.zero(c) {
					t.Errorf("%s after the failure returned a non-zero value", again.name)
				}
			}
			if n := c.Count(1, "thing"); n != 0 {
				t.Errorf("Count after the failure = %d", n)
			}
			c.Fail("a later complaint")
			if err := c.Done(); err == nil || err.Error() != want {
				t.Errorf("Done = %v, want the first error %q", err, want)
			}
		})
	}
}

func itoa(n int) string { return string(rune('0' + n)) }

func TestCursorCountRejectsForgedCountsBeforeAllocating(t *testing.T) {
	b := binary.LittleEndian.AppendUint32(nil, 3)
	b = append(b, make([]byte, 24)...)
	if n := NewCursor("fmt", b).Count(8, "key"); n != 3 {
		t.Errorf("honest count = %d, want 3", n)
	}
	c := NewCursor("fmt", b[:len(b)-1])
	if n := c.Count(8, "key"); n != 0 {
		t.Errorf("count over a buffer one byte short = %d, want 0", n)
	}
	if err := c.Err(); err == nil || err.Error() != "fmt: key count 3 exceeds remaining 23 bytes" {
		t.Errorf("Err = %v", err)
	}

	forged := binary.LittleEndian.AppendUint32(nil, math.MaxUint32)
	forged = append(forged, 1, 2, 3)
	allocs := testing.AllocsPerRun(100, func() {
		c := Cursor{format: "fmt", b: forged}
		if n := c.Count(16, "entry"); n != 0 {
			t.Fatalf("forged count accepted: %d", n)
		}
	})
	// Formatting the error is all a rejection may allocate: a handful of
	// small objects, against the four billion elements the count claims.
	if allocs > 8 {
		t.Errorf("rejecting a forged count allocated %v times", allocs)
	}
}

func sealed(magic string, body []byte) []byte {
	b := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func TestOpen(t *testing.T) {
	magic := [4]byte{'L', 'P', 'T', '1'}
	good := sealed("LPT1", []byte{1, 0, 0, 0, 9})
	c, err := Open("fmt", good, magic)
	if err != nil {
		t.Fatal(err)
	}
	if v := c.U32(); v != 1 {
		t.Errorf("first field = %d", v)
	}
	if v := c.U8(); v != 9 {
		t.Errorf("second field = %d", v)
	}
	if err := c.Done(); err != nil {
		t.Errorf("the CRC trailer is not payload: %v", err)
	}
	if c, err := Open("fmt", sealed("LPT1", nil), magic); err != nil || c.Done() != nil {
		t.Errorf("empty payload: %v", err)
	}

	for cut := 0; cut < 8; cut++ {
		if _, err := Open("fmt", good[:cut], magic); err == nil || !strings.Contains(err.Error(), "fmt: "+itoa(cut)+" bytes is too small") {
			t.Errorf("%d-byte input: %v", cut, err)
		}
	}
	if _, err := Open("fmt", sealed("LPT2", []byte{1}), magic); err == nil || !strings.Contains(err.Error(), `fmt: bad magic "LPT2"`) {
		t.Errorf("wrong magic: %v", err)
	}
	for bit := 0; bit < 8*len(good); bit++ {
		b := append([]byte(nil), good...)
		b[bit/8] ^= 1 << (bit % 8)
		_, err := Open("fmt", b, magic)
		if err == nil {
			t.Fatalf("bit %d flipped: accepted", bit)
		}
		if bit >= 32 && !strings.Contains(err.Error(), "fmt: checksum mismatch") {
			t.Errorf("bit %d flipped: %v", bit, err)
		}
	}
}

func readDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

func TestWriteFile(t *testing.T) {
	for _, syncDir := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "state")
		// A stray temporary from a crashed writer is truncated and reused.
		if err := os.WriteFile(path+".tmp", []byte("garbage from a crash, longer than the new content"), 0o666); err != nil {
			t.Fatal(err)
		}
		for _, content := range []string{"one", "two"} {
			if err := WriteFile(path, syncDir, writeString(content)); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != content {
				t.Errorf("read back %q, %v; want %q", got, err, content)
			}
			if names := readDir(t, dir); len(names) != 1 || names[0] != "state" {
				t.Errorf("directory holds %v after a write", names)
			}
		}
		// A failing write leaves the target as it was and no temporary.
		boom := errors.New("boom")
		err := WriteFile(path, syncDir, func(w io.Writer) error {
			io.WriteString(w, "half of thr")
			return boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("err = %v, want the callback's", err)
		}
		if got, _ := os.ReadFile(path); string(got) != "two" {
			t.Errorf("failed write changed the target to %q", got)
		}
		if names := readDir(t, dir); len(names) != 1 {
			t.Errorf("directory holds %v after a failed write", names)
		}
	}
	if err := WriteFile(filepath.Join(t.TempDir(), "missing", "state"), true, writeString("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}

func TestCommitNamesTheFileWhenItsDirectoryVanished(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.Mkdir(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "seg.llpa.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("payload"); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	err = Commit(f, filepath.Join(dir, "seg.llpa"), true)
	if err == nil || !strings.Contains(err.Error(), "seg.llpa") {
		t.Errorf("Commit into a vanished directory = %v, want an error naming the file", err)
	}
	if _, werr := f.WriteString("x"); werr == nil {
		t.Error("Commit left the file open")
	}
}

func TestCommitRenamesAndSyncDirRejectsAMissingDirectory(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "a.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("payload"); err != nil {
		t.Fatal(err)
	}
	if err := Commit(f, filepath.Join(dir, "a"), true); err != nil {
		t.Fatal(err)
	}
	if names := readDir(t, dir); len(names) != 1 || names[0] != "a" {
		t.Errorf("directory holds %v", names)
	}
	if err := SyncDir(filepath.Join(dir, "nope")); err == nil || !strings.Contains(err.Error(), "sync dir") {
		t.Errorf("SyncDir(missing) = %v", err)
	}
}
