package flow

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// FuzzParseAddr drives the strict manual parser with arbitrary input: it
// must never panic, must round-trip everything Addr.String produces, and
// anything it accepts must re-render to the exact input (the strict
// grammar admits no two spellings of one address... except leading zeros,
// which re-render canonically and must re-parse to the same value).
func FuzzParseAddr(f *testing.F) {
	f.Add("10.0.0.0")
	f.Add("10.255.255.255")
	f.Add("10.1.2.3")
	f.Add("10.1.2.3 ")
	f.Add("10.1.2.3.4")
	f.Add("10.256.0.1")
	f.Add("10.01.2.3")
	f.Add("11.0.0.1")
	f.Add("10.-1.0.1")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAddr(s)
		if err != nil {
			return
		}
		rendered := a.String()
		back, err := ParseAddr(rendered)
		if err != nil {
			t.Fatalf("ParseAddr(%q) accepted, but its rendering %q did not re-parse: %v", s, rendered, err)
		}
		if back != a {
			t.Fatalf("ParseAddr(%q) = %v, re-parsed rendering = %v", s, a, back)
		}
	})
}

func TestParseAddrStrict(t *testing.T) {
	good := map[string]Addr{
		"10.0.0.0":       0,
		"10.0.0.1":       1,
		"10.1.2.3":       1<<16 | 2<<8 | 3,
		"10.255.255.255": 0xffffff,
	}
	for s, want := range good {
		got, err := ParseAddr(s)
		if err != nil || got != want {
			t.Errorf("ParseAddr(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	bad := []string{
		"", "nonsense", "11.0.0.1", "10.256.0.1", "10.0.0.256", "10.300.0.1",
		"10.1.2", "10.1.2.3.4", "10.1.2.3x", "10.1.2.3 ", " 10.1.2.3",
		"10..2.3", "10.1.2.", "10.-1.2.3", "10.1.2.+3", "10.0x1.2.3",
		"10.1234.2.3",
	}
	for _, s := range bad {
		if _, err := ParseAddr(s); err == nil {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

// TestCodecRoundTripFrameBacked is the codec property test over
// frame-backed records: materializing a frame and writing it through any of
// the three codecs — CSV, JSONL, binary frame — must read back exactly, for
// arbitrary record multisets, including switch ids past 2^31 (which the
// historical int32-typed wire forms silently wrapped) and the path-table
// aliasing the frame introduces. All three decoders must also agree on the
// nil-vs-empty normalization of switch lists: an empty path reads back nil.
func TestCodecRoundTripFrameBacked(t *testing.T) {
	property := func(seed int64, n uint8) bool {
		records := randomRecords(seed, int(n))
		// Salt a large switch id into some paths so every run crosses the
		// old 32-bit truncation boundary.
		for i := range records {
			if len(records[i].Switches) > 0 && i%3 == 0 {
				path := append([]SwitchID(nil), records[i].Switches...)
				path[0] += 1 << 40
				records[i].Switches = path
			}
		}
		frame := NewFrame(records)
		materialized := frame.RecordsByStart()

		var csvBuf, jsonBuf, binBuf bytes.Buffer
		if err := WriteCSV(&csvBuf, materialized); err != nil {
			t.Logf("WriteCSV: %v", err)
			return false
		}
		fromCSV, err := ReadCSV(&csvBuf)
		if err != nil {
			t.Logf("ReadCSV: %v", err)
			return false
		}
		if err := WriteJSONL(&jsonBuf, materialized); err != nil {
			t.Logf("WriteJSONL: %v", err)
			return false
		}
		fromJSON, err := ReadJSONL(&jsonBuf)
		if err != nil {
			t.Logf("ReadJSONL: %v", err)
			return false
		}
		if _, err := frame.WriteTo(&binBuf); err != nil {
			t.Logf("WriteTo: %v", err)
			return false
		}
		decodedFrame, err := ReadFrame(&binBuf)
		if err != nil {
			t.Logf("ReadFrame: %v", err)
			return false
		}
		fromBin := decodedFrame.RecordsByStart()
		if len(fromCSV) != len(materialized) || len(fromJSON) != len(materialized) || len(fromBin) != len(materialized) {
			return false
		}
		for i := range materialized {
			if !recordsEqual(materialized[i], fromCSV[i]) ||
				!recordsEqual(materialized[i], fromJSON[i]) ||
				!recordsEqual(materialized[i], fromBin[i]) {
				return false
			}
			// Identical normalization across codecs: empty switch lists
			// are nil from every decoder.
			if len(materialized[i].Switches) == 0 &&
				(fromCSV[i].Switches != nil || fromJSON[i].Switches != nil || fromBin[i].Switches != nil) {
				t.Logf("record %d: empty switches decoded non-nil", i)
				return false
			}
		}
		// Rebuilding a frame from decoded records reproduces the frame.
		if !reflect.DeepEqual(materialized, NewFrame(fromCSV).RecordsByStart()) {
			return false
		}
		return reflect.DeepEqual(frame, decodedFrame)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// FuzzReadFrame drives the binary frame decoder with arbitrary bytes: it
// must never panic, never allocate unboundedly from forged headers, and
// anything it accepts must satisfy the Frame invariants and re-encode to
// the exact input bytes (the format admits one spelling per frame).
func FuzzReadFrame(f *testing.F) {
	for _, n := range []int{0, 1, 7, 60} {
		var buf bytes.Buffer
		if _, err := NewFrame(randomRecords(int64(n), n)).WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		if buf.Len() > 8 {
			f.Add(buf.Bytes()[:buf.Len()/2]) // truncation
			mut := append([]byte(nil), buf.Bytes()...)
			mut[8] ^= 0xff // forged row count
			f.Add(mut)
		}
	}
	// Rows tied on start across pairs, ids descending against pair order.
	var ties []Record
	for i := 0; i < 12; i++ {
		ties = append(ties, rec(uint64(12-i), time.Duration(i%3)*time.Millisecond, time.Millisecond, Addr(i%4), Addr(10+i%3), 1))
	}
	var buf bytes.Buffer
	if _, err := NewFrame(ties).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("LPF1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames uphold the public invariants...
		for i := 0; i < fr.Len(); i++ {
			if p := fr.Path(i); p != NoPath && (p < 0 || int(p) >= fr.PathTable().NumPaths()) {
				t.Fatalf("row %d references out-of-range path %d", i, p)
			}
			_ = fr.Switches(i)
			_ = fr.Record(i)
		}
		for i := 0; i < fr.NumPairs(); i++ {
			lo, hi := fr.PairSpan(i)
			if lo < 0 || hi > fr.Len() || lo > hi {
				t.Fatalf("pair %d span [%d,%d) out of range", i, lo, hi)
			}
		}
		// ...its start index is a permutation of the rows ascending in
		// (start, id, row)...
		if len(fr.byStart) != fr.Len() {
			t.Fatalf("start index has %d rows, frame %d", len(fr.byStart), fr.Len())
		}
		seen := make([]bool, fr.Len())
		for k, r := range fr.byStart {
			if r < 0 || int(r) >= fr.Len() || seen[r] {
				t.Fatalf("start index entry %d (row %d) is not a permutation of the rows", k, r)
			}
			seen[r] = true
			if k == 0 {
				continue
			}
			p := fr.byStart[k-1]
			if s, q := fr.starts[p], fr.starts[r]; s > q || s == q && (fr.ids[p] > fr.ids[r] || fr.ids[p] == fr.ids[r] && p > r) {
				t.Fatalf("start index entries %d..%d (rows %d, %d) out of (start, id, row) order", k-1, k, p, r)
			}
		}
		// ...and re-encode byte-identically, consuming exactly the bytes
		// the encoder would produce.
		var out bytes.Buffer
		if _, err := fr.WriteTo(&out); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted frame re-encodes differently")
		}
	})
}
