package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stream"
)

var epoch = time.Date(2026, 1, 1, 12, 0, 0, 0, time.UTC)

func sampleCheckpoint() *Checkpoint {
	return &Checkpoint{
		Width:    20 * time.Second,
		Hop:      20 * time.Second,
		Lateness: 5 * time.Second,
		Engine: stream.State{
			Anchor:   epoch.UnixNano(),
			MaxEvent: epoch.Add(85 * time.Second).UnixNano(),
			NextK:    4,
			Seq:      4,
			Late:     3,
			Skipped:  0,
		},
		Registry: jobrec.Snapshot{
			Next: 2,
			Jobs: []jobrec.JobSnapshot{
				{ID: 1, Endpoints: []flow.Addr{1, 2, 3, 4}, FirstSeen: epoch, LastSeq: 3},
				{ID: 2, Endpoints: []flow.Addr{9, 10}, FirstSeen: epoch.Add(20 * time.Second), LastSeq: 2},
			},
		},
		Incidents: diagnose.TrackerSnapshot{
			Seq:           4,
			FirstAlertSeq: 1,
			Open: []diagnose.OpenIncident{
				{
					Incident: diagnose.Incident{
						Key:         diagnose.IncidentKey{Job: 1, Kind: diagnose.AlertCrossStep, Rank: 3},
						FirstSeen:   epoch.Add(25 * time.Second),
						LastSeen:    epoch.Add(70 * time.Second),
						Windows:     3,
						StillFiring: true,
						Chronic:     true,
						Detail:      "rank 3 slow",
					},
					OpenedSeq: 1,
				},
				{
					Incident: diagnose.Incident{
						Key:         diagnose.IncidentKey{Kind: diagnose.AlertSwitchBandwidth, Switch: 17},
						FirstSeen:   epoch.Add(65 * time.Second),
						LastSeen:    epoch.Add(70 * time.Second),
						Windows:     1,
						StillFiring: true,
					},
					OpenedSeq: 3,
				},
			},
		},
		Suspects: &localize.TrackerSnapshot{
			Tracks: []localize.TrackSnapshot{
				{
					Component: localize.SwitchComponent(17),
					FirstSeen: epoch.Add(60 * time.Second),
					Windows:   2,
					Fused:     1.75,
					Missed:    0,
					Last: localize.Suspect{
						Component:  localize.SwitchComponent(17),
						Score:      0.9,
						Coverage:   0.95,
						Contrast:   1.4,
						Implicated: 12,
						Healthy:    3,
						FirstSeen:  epoch.Add(60 * time.Second),
						Windows:    2,
						Fused:      1.75,
					},
				},
			},
		},
		Coverage: &CoverageState{Recent: []int64{1200, 1180, 1210}},
	}
}

func encode(t *testing.T, c *Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTrip(t *testing.T) {
	want := sampleCheckpoint()
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
	if from := got.ResumeFrom(); !from.Equal(epoch.Add(80 * time.Second)) {
		t.Errorf("ResumeFrom = %v", from)
	}
}

func TestCheckpointRoundTripMinimal(t *testing.T) {
	want := &Checkpoint{
		Width: time.Second, Hop: time.Second,
		Engine:    stream.State{Anchor: epoch.UnixNano(), MaxEvent: epoch.UnixNano(), NextK: 1, Seq: 1},
		Incidents: diagnose.TrackerSnapshot{FirstAlertSeq: -1, Seq: 1},
	}
	got, err := Read(bytes.NewReader(encode(t, want)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
	if got.Suspects != nil || got.Coverage != nil {
		t.Error("absent sections materialized")
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	data := encode(t, sampleCheckpoint())
	read := func(b []byte) error {
		_, err := Read(bytes.NewReader(b))
		return err
	}
	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), data...)
		b[0] = 'X'
		if read(b) == nil {
			t.Error("accepted")
		}
	})
	t.Run("unknown version", func(t *testing.T) {
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[4:], 99)
		if read(b) == nil {
			t.Error("accepted")
		}
	})
	t.Run("bit flip fails checksum", func(t *testing.T) {
		for _, off := range []int{10, len(data) / 2, len(data) - 6} {
			b := append([]byte(nil), data...)
			b[off] ^= 0x20
			if read(b) == nil {
				t.Errorf("flip at %d accepted", off)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 4, 11, len(data) / 2, len(data) - 1} {
			if read(data[:cut]) == nil {
				t.Errorf("truncation to %d accepted", cut)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		if read(append(append([]byte(nil), data...), 0)) == nil {
			t.Error("accepted")
		}
	})
	t.Run("forged job count", func(t *testing.T) {
		// The job count sits right after geometry+engine+registry.next.
		off := 8 + 3*8 + 6*8 + 8
		b := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(b[off:], 1<<30)
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
		if read(b) == nil {
			t.Error("accepted")
		}
	})
}

// load reads the checkpoint Save wrote at path, as a resuming monitor does
// from the file it opens.
func load(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

func TestCheckpointSaveLoadAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "session.ckpt")
	want := sampleCheckpoint()
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("Save/Load round trip differs")
	}
	// Overwrite must not leave temp droppings behind.
	want.Engine.Seq++
	want.Engine.NextK++
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "session.ckpt" {
		t.Errorf("directory holds %v", entries)
	}
	if got, err = load(path); err != nil || got.Engine.Seq != want.Engine.Seq {
		t.Errorf("reload: %+v, %v", got.Engine, err)
	}
}

// TestCheckpointSaveReusesOneTemporary pins the bound on strays: Save
// writes through the fixed, truncated path+".tmp", so a temporary left by
// a process killed mid-save is replaced by the next save rather than
// joined by another, and any number of saves leave the checkpoint alone in
// its directory.
func TestCheckpointSaveReusesOneTemporary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "east.llpk")
	if err := os.WriteFile(path+".tmp", bytes.Repeat([]byte("torn by a crash "), 200), 0o666); err != nil {
		t.Fatal(err)
	}
	c := sampleCheckpoint()
	for i := 0; i < 100; i++ {
		c.Engine.Seq++
		c.Engine.NextK++
		if err := Save(path, c); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "east.llpk" {
		t.Errorf("directory holds %v after 100 saves over a stray temporary", entries)
	}
	if got, err := load(path); err != nil || !reflect.DeepEqual(got, c) {
		t.Errorf("reload after 100 saves: %v", err)
	}
	if err := Save(filepath.Join(dir, "missing", "east.llpk"), c); err == nil {
		t.Error("save into a missing directory succeeded")
	}
}

// FuzzCheckpointRead holds the decoder to the strict-decoder bar:
// arbitrary bytes either fail or decode to a checkpoint that re-encodes
// to the identical bytes.
func FuzzCheckpointRead(f *testing.F) {
	f.Add(encodeF(f, sampleCheckpoint()))
	f.Add(encodeF(f, &Checkpoint{
		Width: time.Second, Hop: time.Second,
		Incidents: diagnose.TrackerSnapshot{FirstAlertSeq: -1},
	}))
	f.Add([]byte("LPK1"))
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, c); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		if !bytes.Equal(buf.Bytes(), b) {
			t.Fatal("decode/encode not canonical")
		}
	})
}

func encodeF(f *testing.F, c *Checkpoint) []byte {
	var buf bytes.Buffer
	if err := Write(&buf, c); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}
