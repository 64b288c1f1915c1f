package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFileWriterCommitContract pins what every capture path inherits from
// the one file-backed writer: appends go to path+".tmp" (truncating a
// leftover), a clean Close commits exactly the container codec's bytes to
// path and removes the temporary, and Abort or a failed Close leaves the
// temporary for salvage without touching path.
func TestFileWriterCommitContract(t *testing.T) {
	wins := storeWindows(t, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.llpa")
	write := func(n int) *FileWriter {
		t.Helper()
		fw, err := CreateFile(path, storeMeta)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wins[:n] {
			if err := fw.Append(w.seq, w.start, w.end, w.frame); err != nil {
				t.Fatal(err)
			}
		}
		fw.SetAnchor(epoch)
		return fw
	}

	// Abort: temporary kept and salvageable, final path never created.
	write(3).Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("Abort created the final path (err=%v)", err)
	}
	st, rec, err := FileStoreRecovering(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean || st.NumWindows() != 3 {
		t.Fatalf("aborted temporary: clean=%v windows=%d, want 3 salvaged", rec.Clean, st.NumWindows())
	}

	// Close: the longer leftover is truncated, not appended to or refused.
	fw := write(2)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Errorf("second Close = %v, want the first outcome", err)
	}
	fw.Abort() // no-op after Close
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := encodeArchive(t, storeMeta, wins[:2]); !bytes.Equal(got, want) {
		t.Error("committed file differs from the container codec's bytes for the same windows")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Errorf("clean Close left the temporary (err=%v)", err)
	}

	// Failed commit (the final path is a non-empty directory): the error is
	// sticky, the temporary stays, the final path is untouched.
	path = filepath.Join(dir, "blocked.llpa")
	if err := os.MkdirAll(filepath.Join(path, "x"), 0o777); err != nil {
		t.Fatal(err)
	}
	fw = write(1)
	err = fw.Close()
	if err == nil {
		t.Fatal("Close committed onto a non-empty directory")
	}
	if again := fw.Close(); again == nil || again.Error() != err.Error() {
		t.Errorf("second Close = %v, want the first error %v", again, err)
	}
	if _, err := os.Stat(filepath.Join(path, "x")); err != nil {
		t.Errorf("failed Close disturbed the final path: %v", err)
	}
	if st, _, err := FileStoreRecovering(path + ".tmp"); err != nil {
		t.Errorf("temporary after a failed Close: %v", err)
	} else if st.NumWindows() != 1 {
		t.Errorf("temporary after a failed Close holds %d windows, want 1", st.NumWindows())
	}
}
