package flow

import (
	"bytes"
	"flag"
	"os"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden LPF1 file under testdata")

const goldenFrames = "testdata/golden.llpf"

// goldenFrameValues are the frames golden.llpf holds, back to back: rows
// over four endpoint pairs with four interned paths (one shared by two
// rows, one holding a switch id past 2^31) and a NoPath row, then an empty
// frame.
func goldenFrameValues() []*Frame {
	leafUp := []SwitchID{1, 9, 2}
	return []*Frame{
		NewFrame([]Record{
			rec(7, 2*time.Second, 40*time.Millisecond, 0x0a000002, 0x0a000001, 1<<20, leafUp...),
			rec(3, 0, 25*time.Millisecond, 0x0a000001, 0x0a000002, 1<<20, leafUp...),
			rec(4, 0, 30*time.Millisecond, 0x0a000001, 0x0a000003, 4096, 1),
			rec(5, time.Second, 0, 0x0a000003, 0x0a000004, 0),
			rec(6, time.Second, time.Millisecond, 0x0a000001, 0x0a000004, 1<<33, 1<<33, 3),
			rec(2, 0, 25*time.Millisecond, 0x0a000001, 0x0a000002, 512, 2, 9, 1),
		}),
		NewFrame(nil),
	}
}

// TestGoldenFrames pins the LPF1 bytes: the committed file was written by
// the column codec as it stood before the per-type column readers and
// writers were folded into one generic pair, and must decode strictly to
// the constructing frames and re-encode byte-identically.
// go test ./internal/flow -run TestGoldenFrames -update rewrites it.
func TestGoldenFrames(t *testing.T) {
	want := goldenFrameValues()
	if *update {
		var buf bytes.Buffer
		for _, f := range want {
			if _, err := f.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFrames, buf.Bytes(), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(golden)
	var again bytes.Buffer
	for i, w := range want {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("frame %d: strict decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("frame %d decodes to a different frame than the one it was built from", i)
		}
		if _, err := got.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes follow the last frame", r.Len())
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Errorf("%s does not re-encode to its own bytes", goldenFrames)
	}
	if f := want[0]; f.NumPairs() < 3 || f.PathTable().NumPaths() != 4 || f.Path(f.Len()-1) != NoPath {
		t.Errorf("fixture lost its shape: %d pairs, %d paths", f.NumPairs(), f.PathTable().NumPaths())
	}
}
