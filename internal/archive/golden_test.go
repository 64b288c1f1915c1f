package archive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/llmprism/llmprism/internal/flow"
)

var update = flag.Bool("update", false, "rewrite the golden LPA1/LPS1 files under testdata")

const (
	goldenArchive = "testdata/golden.llpa"
	goldenStore   = "testdata/golden.llps"
)

// encodeArchive writes the windows as one anchored LPA1 container.
func encodeArchive(t *testing.T, meta Meta, wins []testWindow) []byte {
	t.Helper()
	var buf bytes.Buffer
	aw, err := NewWriter(&buf, meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range wins {
		if err := aw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	aw.SetAnchor(epoch)
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reencodeArchive strictly opens LPA1 bytes and writes every frame back
// through Writer; a format byte that moved shows as a difference.
func reencodeArchive(t *testing.T, name string, b []byte) []byte {
	t.Helper()
	r, err := OpenReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		t.Fatalf("%s: strict open: %v", name, err)
	}
	var wins []testWindow
	if err := r.Replay(func(s Segment, f *flow.Frame) error {
		wins = append(wins, testWindow{s.Seq, s.Start, s.End, f})
		return nil
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Anchor().Equal(epoch) {
		t.Errorf("%s: anchor %v, want %v", name, r.Anchor(), epoch)
	}
	return encodeArchive(t, r.Meta(), wins)
}

// TestGoldenFormats pins the LPA1 and LPS1 bytes: the committed files were
// written by the code before the capture paths were merged, and must open
// strictly, re-encode byte-identically, and replay to the same windows.
// go test ./internal/archive -run TestGoldenFormats -update rewrites them.
func TestGoldenFormats(t *testing.T) {
	wins := storeWindows(t, 5) // window 2 is empty
	if *update {
		// Only the golden files: testdata/fuzz, if a fuzzer ever writes a
		// crasher there, is not this test's to delete.
		if err := os.RemoveAll(goldenStore); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenArchive, encodeArchive(t, storeMeta, wins), 0o666); err != nil {
			t.Fatal(err)
		}
		buildStore(t, goldenStore, StorePolicy{RotateWindows: 2}, wins)
	}

	single, err := os.ReadFile(goldenArchive)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reencodeArchive(t, goldenArchive, single), single) {
		t.Errorf("%s does not re-encode to its own bytes", goldenArchive)
	}
	if !bytes.Equal(encodeArchive(t, storeMeta, wins), single) {
		t.Errorf("today's Writer encodes the fixture windows differently from %s", goldenArchive)
	}

	manifest, err := os.ReadFile(filepath.Join(goldenStore, StoreManifestName))
	if err != nil {
		t.Fatal(err)
	}
	meta, anchor, next, segs, err := decodeStoreManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeStoreManifest(meta, anchor, next, segs), manifest) {
		t.Error("golden store manifest does not re-encode to its own bytes")
	}
	if len(segs) != 3 {
		t.Fatalf("golden store has %d segments, want 3", len(segs))
	}
	for i := range segs {
		name := filepath.Join(goldenStore, segs[i].File())
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reencodeArchive(t, name, b), b) {
			t.Errorf("%s does not re-encode to its own bytes", name)
		}
	}

	// A store written today from the same windows is the golden store.
	fresh := filepath.Join(t.TempDir(), "fresh.llps")
	buildStore(t, fresh, StorePolicy{RotateWindows: 2}, wins)
	for _, name := range append([]string{StoreManifestName}, segs[0].File(), segs[1].File(), segs[2].File()) {
		got, err := os.ReadFile(filepath.Join(fresh, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenStore, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("today's StoreWriter writes %s differently from the golden store", name)
		}
	}

	st, err := OpenStore(goldenStore)
	if err != nil {
		t.Fatal(err)
	}
	fileView, err := FileStore(goldenArchive)
	if err != nil {
		t.Fatal(err)
	}
	got, want := dumpStore(t, st), dumpStore(t, fileView)
	if len(want) != len(wins) {
		t.Fatalf("golden archive replays %d windows, want %d", len(want), len(wins))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("golden store and golden archive replay different windows")
	}
}
