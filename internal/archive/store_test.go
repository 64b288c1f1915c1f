package archive

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

var storeMeta = Meta{Width: 10 * time.Second, Hop: 10 * time.Second, Lateness: 2 * time.Second}

// storeWindows builds n sequential windows (window 2 empty, like the
// single-file fixtures) on the storeMeta grid.
type testWindow struct {
	seq        int
	start, end time.Time
	frame      *flow.Frame
}

func storeWindows(t *testing.T, n int) []testWindow {
	t.Helper()
	wins := make([]testWindow, n)
	for seq := 0; seq < n; seq++ {
		f := flow.NewFrame(nil)
		if seq != 2 {
			f = flow.NewFrame(windowRecords(int64(seq+1), 50, time.Duration(seq)*10*time.Second))
		}
		start := epoch.Add(time.Duration(seq) * 10 * time.Second)
		wins[seq] = testWindow{seq: seq, start: start, end: start.Add(10 * time.Second), frame: f}
	}
	return wins
}

// winDump is one replayed window reduced to comparable form (the frame in
// its canonical encoding).
type winDump struct {
	seq        int
	start, end int64
	data       []byte
}

func dumpStore(t *testing.T, st *Store) []winDump {
	t.Helper()
	var dump []winDump
	if err := st.Replay(func(s Segment, f *flow.Frame) error {
		var b bytes.Buffer
		if _, err := f.WriteTo(&b); err != nil {
			return err
		}
		dump = append(dump, winDump{s.Seq, s.Start.UnixNano(), s.End.UnixNano(), b.Bytes()})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return dump
}

func buildStore(t *testing.T, dir string, policy StorePolicy, wins []testWindow) {
	t.Helper()
	sw, err := CreateStoreWriter(dir, storeMeta, policy)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetAnchor(epoch)
	for _, w := range wins {
		if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStoreReplayMatchesSingleFile is the container-level half of the
// tentpole's equivalence claim: a rotated multi-segment store replays the
// identical window sequence — same seqs, bounds, and canonical frame bytes
// — as the equivalent single-file archive.
func TestStoreReplayMatchesSingleFile(t *testing.T) {
	wins := storeWindows(t, 9)

	single := filepath.Join(t.TempDir(), "single.llpa")
	f, err := os.Create(single)
	if err != nil {
		t.Fatal(err)
	}
	aw, err := NewWriter(f, storeMeta)
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
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	fileView, err := FileStore(single)
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 4}, wins)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 3 {
		t.Fatalf("segments = %d, want 3 (9 windows, rotate at 4)", st.NumSegments())
	}
	if st.NumWindows() != 9 {
		t.Fatalf("windows = %d, want 9", st.NumWindows())
	}
	if !st.Anchor().Equal(epoch) {
		t.Errorf("anchor = %v, want %v", st.Anchor(), epoch)
	}
	if st.Meta() != storeMeta {
		t.Errorf("meta = %+v", st.Meta())
	}
	for i, sg := range st.Segments() {
		if sg.Index != i+1 {
			t.Errorf("segment %d has index %d", i, sg.Index)
		}
		fi, err := os.Stat(filepath.Join(dir, sg.File()))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != sg.Bytes {
			t.Errorf("segment %s: %d bytes on disk, manifest says %d", sg.File(), fi.Size(), sg.Bytes)
		}
	}

	got, want := dumpStore(t, st), dumpStore(t, fileView)
	if len(want) != 9 {
		t.Fatalf("single-file replay yielded %d windows", len(want))
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("multi-segment store replay differs from single-file archive replay")
	}
}

func TestStoreRotationByBytesAndSpan(t *testing.T) {
	wins := storeWindows(t, 6)
	byBytes := filepath.Join(t.TempDir(), "bybytes")
	buildStore(t, byBytes, StorePolicy{RotateBytes: 1}, wins) // every window past the first rotates
	st, err := OpenStore(byBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 6 {
		t.Errorf("RotateBytes=1: segments = %d, want one per window", st.NumSegments())
	}

	bySpan := filepath.Join(t.TempDir(), "byspan")
	buildStore(t, bySpan, StorePolicy{RotateSpan: 20 * time.Second}, wins) // two 10s windows per segment
	st, err = OpenStore(bySpan)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 3 {
		t.Errorf("RotateSpan=20s: segments = %d, want 3", st.NumSegments())
	}
	for _, sg := range st.Segments() {
		if sg.Windows != 2 {
			t.Errorf("segment %d holds %d windows, want 2", sg.Index, sg.Windows)
		}
	}
}

func TestStoreRetention(t *testing.T) {
	wins := storeWindows(t, 10)
	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 2, RetainSegments: 3}, wins)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 3 {
		t.Fatalf("segments = %d, want 3 retained", st.NumSegments())
	}
	segs := st.Segments()
	if segs[0].Index != 3 || segs[0].FirstSeq != 4 {
		t.Errorf("oldest retained segment = index %d firstSeq %d, want 3/4", segs[0].Index, segs[0].FirstSeq)
	}
	// Pruned files really are gone; retained windows replay in order.
	if _, err := os.Stat(filepath.Join(dir, segFileName(1, segFileSuffix))); !os.IsNotExist(err) {
		t.Errorf("pruned segment 1 still on disk (err=%v)", err)
	}
	dump := dumpStore(t, st)
	if len(dump) != 6 || dump[0].seq != 4 || dump[5].seq != 9 {
		t.Errorf("retained replay covers wrong windows: %d windows, first %d", len(dump), dump[0].seq)
	}

	byBytes := filepath.Join(t.TempDir(), "bybytes")
	buildStore(t, byBytes, StorePolicy{RotateWindows: 2, RetainBytes: 1}, wins)
	st, err = OpenStore(byBytes)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumSegments() != 1 {
		t.Errorf("RetainBytes=1: segments = %d, want only the newest survivor", st.NumSegments())
	}
}

func TestStoreQueryPruningMatchesScan(t *testing.T) {
	wins := storeWindows(t, 9)
	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 3}, wins)
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Ground truth for a query: brute force over every row of every window.
	truth := func(q Query) map[uint64]bool {
		rows := make(map[uint64]bool)
		for _, w := range wins {
			for i := 0; i < w.frame.Len(); i++ {
				if q.MatchRow(w.frame, i) {
					rows[w.frame.ID(i)] = true
				}
			}
		}
		return rows
	}
	scan := func(q Query) map[uint64]bool {
		rows := make(map[uint64]bool)
		if err := st.Scan(q, func(_ Segment, f *flow.Frame, i int) error {
			rows[f.ID(i)] = true
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}

	f0 := wins[0].frame
	pair := f0.PairOf(0)
	sw := flow.SwitchID(7)
	queries := []Query{
		{Pair: &pair},
		{Switch: &sw},
		{From: epoch.Add(25 * time.Second), To: epoch.Add(55 * time.Second)},
		{From: epoch.Add(25 * time.Second), To: epoch.Add(55 * time.Second), Switch: &sw},
		{To: epoch.Add(5 * time.Second), Pair: &pair},
	}
	for qi, q := range queries {
		want, got := truth(q), scan(q)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("query %d: scan found %d rows, brute force %d", qi, len(got), len(want))
		}
	}

	// Pruning actually prunes: a time bound covering only the last
	// segment's windows must not select the earlier segments.
	sel := st.Select(Query{From: epoch.Add(65 * time.Second)})
	if len(sel) != 1 || sel[0].Index != 3 {
		t.Errorf("time-bounded Select = %d segments (first index %v), want just segment 3", len(sel), sel)
	}
	// An absent pair prunes every segment.
	absent := flow.MakePair(flow.Addr(1<<20), flow.Addr(1<<20+1))
	if sel := st.Select(Query{Pair: &absent}); len(sel) != 0 {
		t.Errorf("absent pair selected %d segments", len(sel))
	}
}

func TestStoreSummaryOverflowMatchesAll(t *testing.T) {
	records := make([]flow.Record, MaxStoreSummary+100)
	for i := range records {
		records[i] = flow.Record{
			ID:    uint64(i + 1),
			Start: epoch.Add(time.Duration(i) * time.Millisecond),
			Src:   flow.Addr(i),
			Dst:   flow.Addr(i + 1 + len(records)),
			Bytes: 1,
		}
	}
	dir := filepath.Join(t.TempDir(), "store")
	win := testWindow{seq: 0, start: epoch, end: epoch.Add(10 * time.Second), frame: flow.NewFrame(records)}
	buildStore(t, dir, StorePolicy{}, []testWindow{win})
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sg := st.Segments()[0]
	if !sg.PairOverflow {
		t.Fatal("expected pair summary overflow")
	}
	if len(sg.Pairs) != 0 {
		t.Errorf("overflowed summary still carries %d keys", len(sg.Pairs))
	}
	absent := flow.MakePair(flow.Addr(1<<30), flow.Addr(1<<30+1))
	if !sg.MayContainPair(absent) {
		t.Error("overflowed summary must match every pair")
	}
}

// TestStoreResumeMatchesUninterrupted drives the salvage path: a writer
// that dies mid-segment (windows past the checkpoint in its .tmp) resumes
// into a store whose replay is identical to a never-interrupted run —
// regardless of where the checkpoint fell relative to the torn windows.
func TestStoreResumeMatchesUninterrupted(t *testing.T) {
	wins := storeWindows(t, 9)
	policy := StorePolicy{RotateWindows: 3}
	ref := filepath.Join(t.TempDir(), "ref")
	buildStore(t, ref, policy, wins)
	refStore, err := OpenStore(ref)
	if err != nil {
		t.Fatal(err)
	}
	want := dumpStore(t, refStore)

	// crashAt: windows [0, crashAt) written before the crash; resumeSeq:
	// what the session checkpoint had durably reached (≤ crashAt, and no
	// further back than the last finalized window).
	for _, tc := range []struct{ crashAt, resumeSeq int }{
		{7, 7}, // tmp window salvaged whole
		{8, 7}, // one past-checkpoint window discarded, then re-emitted
		{7, 6}, // whole tmp past checkpoint: discarded, segment re-cut
		{6, 6}, // crash exactly at a rotation boundary: clean tmp-less resume
		{0, 0}, // crash before any window
	} {
		dir := filepath.Join(t.TempDir(), "store")
		sw, err := CreateStoreWriter(dir, storeMeta, policy)
		if err != nil {
			t.Fatal(err)
		}
		sw.SetAnchor(epoch)
		for _, w := range wins[:tc.crashAt] {
			if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
				t.Fatal(err)
			}
		}
		sw.Abort() // the crash: open segment left as .tmp

		if tc.crashAt > tc.resumeSeq {
			if _, err := OpenStore(dir); err == nil {
				t.Fatalf("crashAt=%d: strict open accepted a store with a torn .tmp", tc.crashAt)
			}
		}

		rw, rec, err := ResumeStoreWriter(dir, storeMeta, policy, tc.resumeSeq)
		if err != nil {
			t.Fatalf("crashAt=%d resumeSeq=%d: %v", tc.crashAt, tc.resumeSeq, err)
		}
		if tc.crashAt%3 != 0 && rec.Clean {
			t.Errorf("crashAt=%d: resume over a torn .tmp reported clean", tc.crashAt)
		}
		rw.SetAnchor(epoch)
		for _, w := range wins[tc.resumeSeq:] {
			if err := rw.Append(w.seq, w.start, w.end, w.frame); err != nil {
				t.Fatal(err)
			}
		}
		if err := rw.Close(); err != nil {
			t.Fatal(err)
		}

		st, err := OpenStore(dir)
		if err != nil {
			t.Fatalf("crashAt=%d resumeSeq=%d: resumed store not strictly openable: %v", tc.crashAt, tc.resumeSeq, err)
		}
		if got := dumpStore(t, st); !reflect.DeepEqual(got, want) {
			t.Errorf("crashAt=%d resumeSeq=%d: resumed store replay differs from uninterrupted run", tc.crashAt, tc.resumeSeq)
		}
	}
}

// TestStoreResumeAdoptsUnmanifestedSegment covers the finalize-then-crash
// window: the segment file was renamed into place but the store manifest
// was not rewritten. Resume must adopt it from disk, summaries recomputed.
func TestStoreResumeAdoptsUnmanifestedSegment(t *testing.T) {
	wins := storeWindows(t, 7)
	policy := StorePolicy{RotateWindows: 3}
	dir := filepath.Join(t.TempDir(), "store")
	sw, err := CreateStoreWriter(dir, storeMeta, policy)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetAnchor(epoch)
	for _, w := range wins {
		if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	sw.Abort() // two finalized segments + window 6 in seg-3 .tmp

	// Rewind the manifest one finalize: drop segment 2's entry.
	b, err := os.ReadFile(filepath.Join(dir, StoreManifestName))
	if err != nil {
		t.Fatal(err)
	}
	meta, anchor, _, segs, err := decodeStoreManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("fixture has %d finalized segments, want 2", len(segs))
	}
	stale := encodeStoreManifest(meta, anchor, 2, segs[:1])
	if err := os.WriteFile(filepath.Join(dir, StoreManifestName), stale, 0o666); err != nil {
		t.Fatal(err)
	}

	rw, rec, err := ResumeStoreWriter(dir, storeMeta, policy, 7)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Error("adopting an unmanifested segment should not report clean")
	}
	rw.SetAnchor(epoch)
	for _, w := range wins[7:] {
		if err := rw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	adopted := st.Segments()[1]
	if adopted.PairOverflow || len(adopted.Pairs) == 0 {
		t.Error("adopted segment's pair summary was not recomputed")
	}
	ref := filepath.Join(t.TempDir(), "ref")
	buildStore(t, ref, policy, wins)
	refStore, err := OpenStore(ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dumpStore(t, st), dumpStore(t, refStore)) {
		t.Error("resumed store replay differs from uninterrupted run")
	}
}

func TestStoreResumeRefusesLostWindows(t *testing.T) {
	wins := storeWindows(t, 6)
	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 3}, wins)
	// A checkpoint claiming more windows than the store holds means synced
	// data vanished — resume must refuse, not silently gap the archive.
	if _, _, err := ResumeStoreWriter(dir, storeMeta, StorePolicy{RotateWindows: 3}, 9); err == nil {
		t.Fatal("resume accepted a store missing checkpointed windows")
	} else if !strings.Contains(err.Error(), "lost") {
		t.Errorf("unexpected error: %v", err)
	}
	// Geometry mismatch is refused before any reconciliation.
	other := storeMeta
	other.Width = 20 * time.Second
	if _, _, err := ResumeStoreWriter(dir, other, StorePolicy{}, 6); err == nil {
		t.Fatal("resume accepted mismatched geometry")
	}
}

func TestStoreRecoveringOpenSalvagesTmp(t *testing.T) {
	wins := storeWindows(t, 8)
	policy := StorePolicy{RotateWindows: 3}
	dir := filepath.Join(t.TempDir(), "store")
	sw, err := CreateStoreWriter(dir, storeMeta, policy)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetAnchor(epoch)
	for _, w := range wins {
		if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	sw.Abort() // windows 6,7 torn in seg-3 .tmp

	st, rec, err := OpenStoreRecovering(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Error("recovering open of a crashed store reported clean")
	}
	dump := dumpStore(t, st)
	if len(dump) != 8 {
		t.Fatalf("recovered replay yielded %d windows, want all 8", len(dump))
	}
	for i, d := range dump {
		if d.seq != i {
			t.Fatalf("recovered window %d has seq %d", i, d.seq)
		}
	}

	// A healthy store opens recovering as clean.
	ref := filepath.Join(t.TempDir(), "ref")
	buildStore(t, ref, policy, wins)
	if _, rec, err := OpenStoreRecovering(ref); err != nil || !rec.Clean {
		t.Errorf("healthy store: err=%v clean=%v", err, rec.Clean)
	}
}

func TestStoreManifestStrictDecode(t *testing.T) {
	wins := storeWindows(t, 6)
	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 2}, wins)
	b, err := os.ReadFile(filepath.Join(dir, StoreManifestName))
	if err != nil {
		t.Fatal(err)
	}
	meta, anchor, next, segs, err := decodeStoreManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical: decode∘encode is the identity on accepted input.
	if again := encodeStoreManifest(meta, anchor, next, segs); !bytes.Equal(again, b) {
		t.Error("re-encoded manifest differs from file bytes")
	}
	// Every single-byte corruption is rejected (CRC or structure).
	for i := 0; i < len(b); i += 7 {
		mut := append([]byte(nil), b...)
		mut[i] ^= 0x41
		if _, _, _, _, err := decodeStoreManifest(mut); err == nil {
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, _, _, _, err := decodeStoreManifest(b[:len(b)-1]); err == nil {
		t.Error("truncated manifest accepted")
	}
	if _, _, _, _, err := decodeStoreManifest(append(append([]byte(nil), b...), 0)); err == nil {
		t.Error("over-long manifest accepted")
	}
}

// FuzzStoreManifest asserts the decoder is total (no panics) and
// canonical: whatever it accepts must re-encode to the identical bytes.
func FuzzStoreManifest(f *testing.F) {
	wins := storeWindowsForFuzz()
	dir := f.TempDir()
	sw, err := CreateStoreWriter(filepath.Join(dir, "s"), storeMeta, StorePolicy{RotateWindows: 2})
	if err != nil {
		f.Fatal(err)
	}
	sw.SetAnchor(epoch)
	for _, w := range wins {
		if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			f.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(dir, "s", StoreManifestName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:storeHeaderSize+storeTrailerSize])
	f.Add([]byte("LPS1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		meta, anchor, next, segs, err := decodeStoreManifest(b)
		if err != nil {
			return
		}
		if again := encodeStoreManifest(meta, anchor, next, segs); !bytes.Equal(again, b) {
			t.Fatalf("accepted manifest is not canonical: %d bytes in, %d re-encoded", len(b), len(again))
		}
	})
}

func storeWindowsForFuzz() []testWindow {
	var wins []testWindow
	for seq := 0; seq < 5; seq++ {
		start := epoch.Add(time.Duration(seq) * 10 * time.Second)
		wins = append(wins, testWindow{
			seq:   seq,
			start: start,
			end:   start.Add(10 * time.Second),
			frame: flow.NewFrame(windowRecords(int64(seq+1), 30, time.Duration(seq)*10*time.Second)),
		})
	}
	return wins
}

// crashedStore writes wins under policy and aborts the writer, leaving the
// finalized segments, their manifest and the open segment's .tmp.
func crashedStore(t *testing.T, policy StorePolicy, wins []testWindow) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	sw, err := CreateStoreWriter(dir, storeMeta, policy)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetAnchor(epoch)
	for _, w := range wins {
		if err := sw.Append(w.seq, w.start, w.end, w.frame); err != nil {
			t.Fatal(err)
		}
	}
	sw.Abort()
	return dir
}

// TestStoreRecoveringOpenSalvagesTruncatedSegment: a manifested segment
// whose file lost its tail is labelled size-mismatch and salvage-scanned at
// replay — every window before the cut comes back, the other segments
// whole — where a strict open refuses the store.
func TestStoreRecoveringOpenSalvagesTruncatedSegment(t *testing.T) {
	wins := storeWindows(t, 9)
	dir := filepath.Join(t.TempDir(), "store")
	buildStore(t, dir, StorePolicy{RotateWindows: 3}, wins)
	seg2 := filepath.Join(dir, segFileName(2, segFileSuffix))
	fi, err := os.Stat(seg2)
	if err != nil {
		t.Fatal(err)
	}
	// 40 bytes off the end takes the trailer and part of the manifest; all
	// three frame blobs stay intact.
	if err := os.Truncate(seg2, fi.Size()-40); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("strict open accepted a truncated segment")
	}
	st, rec, err := OpenStoreRecovering(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Error("recovering open of a truncated segment reported clean")
	}
	dump := dumpStore(t, st)
	if len(dump) != 9 {
		t.Fatalf("recovered replay yielded %d windows, want all 9", len(dump))
	}
	for i, d := range dump {
		if d.seq != i {
			t.Fatalf("recovered window %d has seq %d", i, d.seq)
		}
	}
	rows := 0
	if err := st.Scan(Query{}, func(Segment, *flow.Frame, int) error { rows++; return nil }); err != nil {
		t.Fatalf("scan of recovered store: %v", err)
	}
	if rows != 8*50 {
		t.Errorf("scan visited %d rows, want %d", rows, 8*50)
	}
	// Resume must not build on a damaged finalized segment.
	if _, _, err := ResumeStoreWriter(dir, storeMeta, StorePolicy{RotateWindows: 3}, 9); err == nil {
		t.Error("resume accepted a store with a truncated finalized segment")
	}
}

// TestStoreAlreadyPrunedStray plants the file a crash between retention's
// manifest rewrite and its unlink leaves behind. Every opener must see the
// same store: strict open refuses, the lenient view ignores the stray
// (nothing deleted), resume removes it — and fails loudly when it cannot.
func TestStoreAlreadyPrunedStray(t *testing.T) {
	wins := storeWindows(t, 7)
	policy := StorePolicy{RotateWindows: 2, RetainSegments: 2}
	dir := crashedStore(t, policy, wins) // segments 2,3 kept, window 6 in seg-4 .tmp
	if err := os.Remove(filepath.Join(dir, segFileName(4, segTmpSuffix))); err != nil {
		t.Fatal(err)
	}
	strict, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, segFileName(1, segFileSuffix))
	donor, err := os.ReadFile(filepath.Join(dir, segFileName(2, segFileSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(stray, donor, 0o666); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenStore(dir); err == nil {
		t.Error("strict open accepted a store with an unmanifested segment")
	}
	lenient, rec, err := OpenStoreRecovering(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Error("lenient open over a pruned stray reported clean")
	}
	if lenient.NumSegments() != strict.NumSegments() || lenient.NumWindows() != strict.NumWindows() {
		t.Errorf("lenient open sees %d segments / %d windows, strict %d / %d",
			lenient.NumSegments(), lenient.NumWindows(), strict.NumSegments(), strict.NumWindows())
	}
	if _, err := os.Stat(stray); err != nil {
		t.Errorf("lenient open touched the stray: %v", err)
	}

	// A leftover resume cannot remove is an error, not a "removed" note: a
	// non-empty directory under an interrupted salvage's name.
	blocker := filepath.Join(dir, segFileName(9, segSalvageSuffix))
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o777); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ResumeStoreWriter(dir, storeMeta, policy, 6); err == nil {
		t.Error("resume reported success over a salvage leftover it could not remove")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	rw, rec, err := ResumeStoreWriter(dir, storeMeta, policy, 6)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Clean {
		t.Error("resume over a pruned stray reported clean")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("resume left the pruned stray on disk (err=%v)", err)
	}
	if err := rw.Close(); err != nil {
		t.Fatal(err)
	}
	resumed, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dumpStore(t, resumed), dumpStore(t, strict)) {
		t.Error("store after resume differs from the store before the stray was planted")
	}
}
