package checkpoint

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/localize"
	"github.com/llmprism/llmprism/internal/flow"
)

var update = flag.Bool("update", false, "rewrite the golden LPK1 file under testdata")

const goldenCheckpointFile = "testdata/golden.llpk"

// goldenCheckpoint populates every LPK1 section: sampleCheckpoint's two
// open incidents (one StillFiring and Chronic with a Detail) and coverage
// block, a third registry job whose FirstSeen is the zero time, and
// suspect tracks for a switch, a link and a host component.
func goldenCheckpoint() *Checkpoint {
	c := sampleCheckpoint()
	c.Registry.Next = 3
	c.Registry.Jobs = append(c.Registry.Jobs, jobrec.JobSnapshot{ID: 3, Endpoints: []flow.Addr{20, 21, 22}, LastSeq: 3})
	track := func(comp localize.Component, fused float64, missed int) localize.TrackSnapshot {
		return localize.TrackSnapshot{
			Component: comp,
			FirstSeen: epoch.Add(40 * time.Second),
			Windows:   3,
			Fused:     fused,
			Missed:    missed,
			Last: localize.Suspect{
				Component:  comp,
				Score:      fused / 2,
				Coverage:   0.5,
				Contrast:   2.25,
				Implicated: 7,
				Healthy:    40,
				FirstSeen:  epoch.Add(40 * time.Second),
				Windows:    3,
				Fused:      fused,
			},
		}
	}
	c.Suspects.Tracks = append(c.Suspects.Tracks,
		track(localize.LinkComponent(17, 3), 1.5, 1),
		track(localize.HostComponent(0x0a000004), 0.625, 0),
	)
	return c
}

// TestGoldenCheckpoint pins the LPK1 bytes: the committed file was written
// by the encoder as it stood before the decoder moved onto the shared
// strict cursor, and must decode strictly to the constructing value and
// re-encode byte-identically.
// go test ./internal/checkpoint -run TestGoldenCheckpoint -update rewrites it.
func TestGoldenCheckpoint(t *testing.T) {
	want := goldenCheckpoint()
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpointFile, encode(t, want), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenCheckpointFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("golden decodes to\n %+v\nwant\n %+v", got, want)
	}
	if !bytes.Equal(encode(t, got), golden) {
		t.Errorf("%s does not re-encode to its own bytes", goldenCheckpointFile)
	}
}
