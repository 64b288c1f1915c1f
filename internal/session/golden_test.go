package session_test

import (
	"bytes"
	"flag"
	"io"
	"os"
	"reflect"
	"testing"

	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
)

var update = flag.Bool("update", false, "rewrite the golden LPW1 file under testdata")

const (
	goldenWire        = "testdata/golden.llpw"
	goldenWireCluster = "cluster-a.prod_1"
)

// encodeWire writes one whole collector connection: hello, one message per
// frame, end-of-stream.
func encodeWire(t *testing.T, cluster string, frames []*flow.Frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := session.WriteHello(&buf, cluster); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if err := session.WriteFrameMessage(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := session.WriteEndOfStream(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenWire pins the LPW1 bytes of a collector connection — hello,
// two frame messages, end-of-stream — as written before the LPF1 payload
// codec's column loops were folded into one: the committed file must
// decode strictly to the constructing frames and re-encode byte-identically.
// go test ./internal/session -run TestGoldenWire -update rewrites it.
func TestGoldenWire(t *testing.T) {
	want := []*flow.Frame{wireFrame(t, 0, 5), wireFrame(t, 2, 12)}
	if *update {
		if err := os.MkdirAll("testdata", 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWire, encodeWire(t, goldenWireCluster, want), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(goldenWire)
	if err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(golden)
	cluster, err := session.ReadHello(r)
	if err != nil {
		t.Fatalf("strict decode: %v", err)
	}
	if cluster != goldenWireCluster {
		t.Errorf("hello names cluster %q, want %q", cluster, goldenWireCluster)
	}
	var got []*flow.Frame
	for {
		f, err := session.ReadFrameMessage(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("frame message %d: strict decode: %v", len(got), err)
		}
		got = append(got, f)
	}
	if r.Len() != 0 {
		t.Errorf("%d bytes follow the end-of-stream marker", r.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("golden stream decodes to different frames than the ones it was built from")
	}
	if !bytes.Equal(encodeWire(t, cluster, got), golden) {
		t.Errorf("%s does not re-encode to its own bytes", goldenWire)
	}
}
