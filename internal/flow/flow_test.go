package flow

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func rec(id uint64, start time.Duration, dur time.Duration, src, dst Addr, size int64, switches ...SwitchID) Record {
	return Record{
		ID:       id,
		Start:    epoch.Add(start),
		Duration: dur,
		Src:      src,
		Dst:      dst,
		Bytes:    size,
		Switches: switches,
	}
}

func TestAddrString(t *testing.T) {
	tests := []struct {
		addr Addr
		want string
	}{
		{0, "10.0.0.0"},
		{1, "10.0.0.1"},
		{256, "10.0.1.0"},
		{1<<16 + 2<<8 + 3, "10.1.2.3"},
	}
	for _, tt := range tests {
		if got := tt.addr.String(); got != tt.want {
			t.Errorf("Addr(%d).String() = %q, want %q", tt.addr, got, tt.want)
		}
	}
}

func TestParseAddrRoundTrip(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw & 0xffffff)
		parsed, err := ParseAddr(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseAddrErrors(t *testing.T) {
	for _, s := range []string{"", "nonsense", "10.300.0.1", "11.0.0.1"} {
		if _, err := ParseAddr(s); err == nil && s != "11.0.0.1" {
			t.Errorf("ParseAddr(%q) succeeded, want error", s)
		}
	}
}

func TestMakePairCanonical(t *testing.T) {
	p1 := MakePair(5, 3)
	p2 := MakePair(3, 5)
	if p1 != p2 {
		t.Errorf("MakePair not canonical: %v vs %v", p1, p2)
	}
	if p1.A != 3 || p1.B != 5 {
		t.Errorf("MakePair order = %v, want A=3 B=5", p1)
	}
}

func TestRecordEndAndGbps(t *testing.T) {
	r := rec(1, 0, time.Second, 1, 2, 12.5e9/8*1) // 12.5 GB/s over 1s = 12.5 Gb... careful
	r.Bytes = 1250000000                          // 1.25 GB in 1 s = 10 Gb/s
	if got := r.Gbps(); got < 9.99 || got > 10.01 {
		t.Errorf("Gbps = %v, want 10", got)
	}
	if !r.End().Equal(epoch.Add(time.Second)) {
		t.Errorf("End = %v, want %v", r.End(), epoch.Add(time.Second))
	}
	zero := Record{}
	if zero.Gbps() != 0 {
		t.Error("zero-duration flow should have 0 Gbps")
	}
}

func TestSortByStartStable(t *testing.T) {
	records := []Record{
		rec(3, 2*time.Second, 0, 1, 2, 10),
		rec(2, time.Second, 0, 1, 2, 10),
		rec(1, time.Second, 0, 1, 2, 10),
	}
	SortByStart(records)
	gotIDs := []uint64{records[0].ID, records[1].ID, records[2].ID}
	if !reflect.DeepEqual(gotIDs, []uint64{1, 2, 3}) {
		t.Errorf("sorted IDs = %v, want [1 2 3]", gotIDs)
	}
}

func TestWindow(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 1, 2, 10),
		rec(2, time.Second, 0, 1, 2, 10),
		rec(3, 2*time.Second, 0, 1, 2, 10),
		rec(4, 3*time.Second, 0, 1, 2, 10),
	}
	got := Window(records, epoch.Add(time.Second), epoch.Add(3*time.Second))
	if len(got) != 2 || got[0].ID != 2 || got[1].ID != 3 {
		t.Errorf("Window returned %v, want records 2,3", got)
	}
	if len(Window(records, epoch.Add(10*time.Second), epoch.Add(20*time.Second))) != 0 {
		t.Error("out-of-range window should be empty")
	}
}

func TestEndpoints(t *testing.T) {
	records := []Record{
		rec(1, 0, 0, 5, 2, 10),
		rec(2, 0, 0, 2, 9, 20),
	}
	eps := Endpoints(records)
	if !reflect.DeepEqual(eps, []Addr{2, 5, 9}) {
		t.Errorf("Endpoints = %v, want [2 5 9]", eps)
	}
}

func randomRecords(seed int64, n int) []Record {
	rng := rand.New(rand.NewSource(seed))
	records := make([]Record, n)
	for i := range records {
		var switches []SwitchID
		for k := 0; k < rng.Intn(4); k++ {
			switches = append(switches, SwitchID(rng.Intn(64)))
		}
		records[i] = Record{
			ID:       uint64(i + 1),
			Start:    epoch.Add(time.Duration(rng.Int63n(int64(time.Hour)))),
			Duration: time.Duration(rng.Int63n(int64(10 * time.Second))),
			Src:      Addr(rng.Intn(1 << 24)),
			Dst:      Addr(rng.Intn(1 << 24)),
			Bytes:    rng.Int63n(1 << 32),
			Switches: switches,
		}
	}
	return records
}

func TestCSVRoundTrip(t *testing.T) {
	records := randomRecords(7, 200)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, records); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip length = %d, want %d", len(got), len(records))
	}
	for i := range got {
		if !recordsEqual(got[i], records[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	records := randomRecords(11, 200)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, records); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if len(got) != len(records) {
		t.Fatalf("round trip length = %d, want %d", len(got), len(records))
	}
	for i := range got {
		if !recordsEqual(got[i], records[i]) {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], records[i])
		}
	}
}

func recordsEqual(a, b Record) bool {
	if a.ID != b.ID || !a.Start.Equal(b.Start) || a.Duration != b.Duration ||
		a.Src != b.Src || a.Dst != b.Dst || a.Bytes != b.Bytes ||
		len(a.Switches) != len(b.Switches) {
		return false
	}
	for i := range a.Switches {
		if a.Switches[i] != b.Switches[i] {
			return false
		}
	}
	return true
}

func TestParseSwitchesRejectsMalformed(t *testing.T) {
	for _, s := range []string{"|", "3|", "|3", "3||7", "3|x", "x"} {
		if _, err := parseSwitches(s); err == nil {
			t.Errorf("parseSwitches(%q) succeeded, want error", s)
		}
	}
	got, err := parseSwitches("3|7|11")
	if err != nil || len(got) != 3 || got[0] != 3 || got[1] != 7 || got[2] != 11 {
		t.Errorf("parseSwitches(\"3|7|11\") = %v, %v", got, err)
	}
	if got, err := parseSwitches(""); err != nil || got != nil {
		t.Errorf("parseSwitches(\"\") = %v, %v; want nil, nil", got, err)
	}
}

// TestCodecLargeSwitchIDs pins the truncation bugfix: switch ids past 2^31
// round-trip through both text codecs instead of wrapping into unrelated
// switches (the historical int32 wire forms corrupted every downstream
// per-switch diagnosis).
func TestCodecLargeSwitchIDs(t *testing.T) {
	records := []Record{
		rec(1, 0, time.Second, 1, 2, 100, 1<<33, 1<<62+7),
		rec(2, time.Second, time.Second, 3, 4, 50, (1<<63)-1),
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonBuf, records); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSONL(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if !recordsEqual(records[i], fromCSV[i]) {
			t.Errorf("csv record %d: got switches %v, want %v", i, fromCSV[i].Switches, records[i].Switches)
		}
		if !recordsEqual(records[i], fromJSON[i]) {
			t.Errorf("jsonl record %d: got switches %v, want %v", i, fromJSON[i].Switches, records[i].Switches)
		}
	}
}

// TestCodecRejectsNegativeFields pins the validation bugfix: negative
// durations, byte counts and switch ids are decode errors carrying the
// offending line number, never records that poison Gbps and watermark math.
func TestCodecRejectsNegativeFields(t *testing.T) {
	good := []Record{rec(1, 0, time.Second, 1, 2, 100, 3)}
	mutations := []struct {
		name   string
		mutate func(*Record)
	}{
		{"negative duration", func(r *Record) { r.Duration = -time.Second }},
		{"negative bytes", func(r *Record) { r.Bytes = -100 }},
		{"negative switch", func(r *Record) { r.Switches = []SwitchID{-5} }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			bad := good[0]
			m.mutate(&bad)
			records := append(good, bad) // line 3 of the CSV, line 2 of the JSONL

			var csvBuf, jsonBuf bytes.Buffer
			if err := WriteCSV(&csvBuf, records); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadCSV(&csvBuf); err == nil {
				t.Error("ReadCSV accepted the record")
			} else if !strings.Contains(err.Error(), "line 3") {
				t.Errorf("ReadCSV error not line-numbered: %v", err)
			}
			if err := WriteJSONL(&jsonBuf, records); err != nil {
				t.Fatal(err)
			}
			if _, err := ReadJSONL(&jsonBuf); err == nil {
				t.Error("ReadJSONL accepted the record")
			} else if !strings.Contains(err.Error(), "line 2") {
				t.Errorf("ReadJSONL error not line-numbered: %v", err)
			}
		})
	}
}

// TestCodecNilVsEmptySwitches: all codecs agree that a record with no
// switches decodes with a nil slice (ReadJSONL used to yield an empty
// non-nil slice, breaking cross-codec DeepEqual of decoded traces).
func TestCodecNilVsEmptySwitches(t *testing.T) {
	records := []Record{
		rec(1, 0, time.Second, 1, 2, 100),
		{ID: 2, Start: epoch, Duration: time.Second, Src: 1, Dst: 2, Bytes: 5, Switches: []SwitchID{}},
	}
	var csvBuf, jsonBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&jsonBuf, records); err != nil {
		t.Fatal(err)
	}
	fromCSV, err := ReadCSV(&csvBuf)
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ReadJSONL(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range records {
		if fromCSV[i].Switches != nil {
			t.Errorf("csv record %d: switches = %#v, want nil", i, fromCSV[i].Switches)
		}
		if fromJSON[i].Switches != nil {
			t.Errorf("jsonl record %d: switches = %#v, want nil", i, fromJSON[i].Switches)
		}
	}
	if !reflect.DeepEqual(fromCSV, fromJSON) {
		t.Error("CSV and JSONL decode the same trace differently")
	}
}

func TestReadCSVRejectsBadHeader(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("a,b,c,d,e,f,g\n")); err == nil {
		t.Error("ReadCSV accepted bad header")
	}
}

func TestReadCSVEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, nil); err != nil {
		t.Fatalf("WriteCSV(nil): %v", err)
	}
	got, err := ReadCSV(&buf)
	if err != nil || len(got) != 0 {
		t.Errorf("ReadCSV of empty body = %v, %v; want empty, nil", got, err)
	}
}

func BenchmarkCSVWrite(b *testing.B) {
	records := randomRecords(3, 10_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCSV(&buf, records); err != nil {
			b.Fatal(err)
		}
	}
}
