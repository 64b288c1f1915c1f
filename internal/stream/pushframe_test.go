package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// frameResult captures everything an emitted window exposes, with the frame
// reduced to its serialized bytes — the strictest identity.
type frameResult struct {
	Seq        int
	Start, End time.Time
	Rows       int
	Bytes      []byte
}

func newCaptureEngine(cfg Config) *Engine[struct{}] {
	return New(cfg, func(_ context.Context, _ Window, _ *flow.Frame) (struct{}, error) {
		return struct{}{}, nil
	})
}

func capture(t *testing.T, out []frameResult, results []Result[struct{}]) []frameResult {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		var buf bytes.Buffer
		if _, err := r.Frame.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out = append(out, frameResult{
			Seq: r.Window.Seq, Start: r.Window.Start, End: r.Window.End,
			Rows: r.Rows, Bytes: buf.Bytes(),
		})
	}
	return out
}

func captureAll(t *testing.T, e *Engine[struct{}]) []frameResult {
	t.Helper()
	results, err := e.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return capture(t, nil, results)
}

// pushFrameRecords builds a spread of records with shared switch paths,
// duplicates and stragglers across several window widths.
func pushFrameRecords(seed int64, n int, span time.Duration) []flow.Record {
	rng := rand.New(rand.NewSource(seed))
	paths := [][]flow.SwitchID{nil, {1, 9, 2}, {1, 8, 2}, {3, 9, 4}, {3, 8, 4, 9}}
	records := make([]flow.Record, n)
	for i := range records {
		records[i] = flow.Record{
			ID:       uint64(i + 1),
			Start:    epoch.Add(time.Duration(rng.Int63n(int64(span)))),
			Duration: time.Duration(rng.Int63n(int64(time.Second))),
			Src:      flow.Addr(rng.Intn(8)),
			Dst:      flow.Addr(rng.Intn(8)),
			Bytes:    rng.Int63n(1 << 20),
			Switches: paths[rng.Intn(len(paths))],
		}
		if i > 0 && rng.Intn(12) == 0 {
			records[i] = records[i-1]
		}
	}
	return records
}

// pushRecords and ingest are a per-record router, the test-only reference
// TestPushFrameMatchesPush compares PushFrame against: anchor at the
// batch's earliest record, route each record to every window covering its
// start with its own late check and backward grid extension, then close
// what the watermark passed. PushFrame must agree with it for any batch order:
// within one push, late and extension decisions read only haveK, nextK and
// started, and those change only by the pre-emission backward extension —
// an order-free minimum.
func (e *Engine[R]) pushRecords(ctx context.Context, records []flow.Record) error {
	if len(records) == 0 {
		return nil
	}
	if !e.anchored {
		min := records[0].Start
		for _, r := range records[1:] {
			if r.Start.Before(min) {
				min = r.Start
			}
		}
		e.anchor = min.UnixNano()
		e.maxEvent = e.anchor
		e.anchored = true
	}
	for i := range records {
		e.ingest(&records[i])
	}
	// Close windows only after the whole batch landed, so records within
	// one push never race their own batch's watermark.
	return e.closeDue(ctx)
}

// ingest routes one record to every open window covering its start time.
// The grid extends below the anchor (negative k) while nothing has been
// emitted yet, so within-lateness stragglers older than the first push's
// minimum still land in their own correctly-bounded windows.
func (e *Engine[R]) ingest(r *flow.Record) {
	t := r.Start.UnixNano()
	if t > e.maxEvent {
		e.maxEvent = t
	}
	d := t - e.anchor
	hop, width := int64(e.cfg.Hop), int64(e.cfg.Width)
	kHi := FloorDiv(d, hop)
	kLo := FloorDiv(d-width, hop) + 1
	for k := kLo; k <= kHi; k++ {
		if e.haveK && k < e.nextK {
			if e.started {
				e.late++
				continue
			}
			e.nextK = k // emission not begun: the grid extends backwards
		}
		if !e.haveK {
			e.nextK = k
			e.haveK = true
		}
		w := e.open[k]
		if w == nil {
			w = &openWindow{b: flow.NewFrameBuilder()}
			e.open[k] = w
		}
		w.b.AppendRecord(*r)
		w.rows++
		e.pending++
	}
}

// TestPushFrameMatchesPush is the engine-level equivalence gate: feeding
// record batches as frames through PushFrame must emit exactly the windows,
// rows and byte-identical frames the per-record reference router produces,
// with equal Pending, Late and Skipped after every push — for tumbling and
// overlapping grids, several pipeline depths, arrival batchings that
// include late rows, and inputs in start order, in generation order, and
// shuffled whole (so the first batches carry pre-anchor stragglers).
func TestPushFrameMatchesPush(t *testing.T) {
	records := pushFrameRecords(1, 2000, time.Minute)
	byStart := append([]flow.Record(nil), records...)
	flow.SortByStart(byStart)
	names := []string{"generated", "by start"}
	inputs := [][]flow.Record{records, byStart}
	for seed := int64(1); seed <= 3; seed++ {
		perm := append([]flow.Record(nil), records...)
		rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		names = append(names, fmt.Sprintf("shuffle %d", seed))
		inputs = append(inputs, perm)
	}
	configs := []Config{
		{Width: 10 * time.Second},
		{Width: 10 * time.Second, Lateness: 2 * time.Second},
		{Width: 12 * time.Second, Hop: 4 * time.Second, Lateness: time.Second},
		{Width: 10 * time.Second, Lateness: 2 * time.Second, MaxInFlight: 4},
	}
	for ii, input := range inputs {
		for ci, cfg := range configs {
			for _, batch := range []int{1, 7, 200, len(input)} {
				var batches [][]flow.Record
				for lo := 0; lo < len(input); lo += batch {
					batches = append(batches, input[lo:min(lo+batch, len(input))])
				}
				checkPushFrame(t, fmt.Sprintf("%s, config %d, batch %d", names[ii], ci, batch), cfg, batches)
			}
		}
	}
}

// checkPushFrame pushes batches in order through the per-record router and
// through PushFrame, and fails t unless every push leaves equal Pending,
// Late and Skipped and both emit the same windows with byte-identical
// frames.
func checkPushFrame(t *testing.T, label string, cfg Config, batches [][]flow.Record) {
	t.Helper()
	ref := newCaptureEngine(cfg)
	bulk := newCaptureEngine(cfg)
	var want, got []frameResult
	for i, chunk := range batches {
		if err := ref.pushRecords(context.Background(), chunk); err != nil {
			t.Fatal(err)
		}
		want = capture(t, want, ref.Ready())
		if err := bulk.PushFrame(context.Background(), flow.NewFrame(chunk)); err != nil {
			t.Fatal(err)
		}
		got = capture(t, got, bulk.Ready())
		if ref.Pending() != bulk.Pending() || ref.Late() != bulk.Late() || ref.Skipped() != bulk.Skipped() {
			t.Fatalf("%s, push %d: pending/late/skipped %d/%d/%d (records) vs %d/%d/%d (frame)",
				label, i, ref.Pending(), ref.Late(), ref.Skipped(), bulk.Pending(), bulk.Late(), bulk.Skipped())
		}
	}
	want = append(want, captureAll(t, ref)...)
	got = append(got, captureAll(t, bulk)...)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: PushFrame windows diverge from the record router (%d vs %d windows)", label, len(want), len(got))
	}
}

// TestPushFrameAnchorsLikePush: the first frame anchors the grid at its
// earliest row, exactly as the record router anchors at its first batch's
// earliest record.
func TestPushFrameAnchorsLikePush(t *testing.T) {
	records := []flow.Record{rec(2, 9*time.Second), rec(1, 3*time.Second), rec(3, 15*time.Second)}
	ref := newCaptureEngine(Config{Width: 10 * time.Second})
	if err := ref.pushRecords(context.Background(), records); err != nil {
		t.Fatal(err)
	}
	bulk := newCaptureEngine(Config{Width: 10 * time.Second})
	if err := bulk.PushFrame(context.Background(), flow.NewFrame(records)); err != nil {
		t.Fatal(err)
	}
	if !ref.Anchor().Equal(bulk.Anchor()) {
		t.Fatalf("anchor %v (records) vs %v (frame)", ref.Anchor(), bulk.Anchor())
	}
	if want, got := captureAll(t, ref), captureAll(t, bulk); !reflect.DeepEqual(want, got) {
		t.Fatal("windows diverge after identical anchoring")
	}
}

// TestPushFrameLateFrame: a whole frame older than the emitted grid is
// dropped as late, one count per row per missed window, with no windows
// reopened.
func TestPushFrameLateFrame(t *testing.T) {
	e := newCaptureEngine(Config{Width: 10 * time.Second})
	if err := push(context.Background(), e, rec(1, time.Second), rec(2, 25*time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Ready()
	late := flow.NewFrame([]flow.Record{rec(3, 2*time.Second), rec(4, 3*time.Second)})
	if err := e.PushFrame(context.Background(), late); err != nil {
		t.Fatal(err)
	}
	if e.Late() != 2 {
		t.Fatalf("late = %d, want 2", e.Late())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1 (only the on-time record)", e.Pending())
	}
}

// fuzzPushConfigs are the grids FuzzPushFrame draws from: tumbling and
// hopping, with and without lateness, pipelined, and one whose short
// MaxEmptyRun makes far-future rows skip slots.
var fuzzPushConfigs = []Config{
	{Width: 10 * time.Second},
	{Width: 10 * time.Second, Lateness: 2 * time.Second},
	{Width: 12 * time.Second, Hop: 4 * time.Second, Lateness: time.Second},
	{Width: 10 * time.Second, Lateness: 2 * time.Second, MaxInFlight: 3},
	{Width: 6 * time.Second, Hop: 2 * time.Second, MaxEmptyRun: 2},
}

// fuzzPushBatches decodes data into a grid and a batched record set. The
// first byte picks the config; then every three bytes make one record:
//
//	b0      start, in 250 ms steps (coarse, so starts tie)
//	b1      bits 0-1 src, 2-3 dst (a few pairs), 4-5 switch path,
//	        bits 6-7 duration in 300 ms steps
//	b2      bit 0 reuses the previous record's id, bit 1 ends the batch
//	        after this record, bit 2 moves the start a minute later,
//	        bits 3-7 a sub-step start offset in 7 ms units
//
// Batches arrive in data order, so rows a batch carries below the
// watermark of an earlier one are late. Past 64 records the rest of data
// is ignored, which keeps each run short.
func fuzzPushBatches(data []byte) (Config, [][]flow.Record) {
	if len(data) == 0 {
		return fuzzPushConfigs[0], nil
	}
	cfg := fuzzPushConfigs[int(data[0])%len(fuzzPushConfigs)]
	paths := [][]flow.SwitchID{nil, {1, 9, 2}, {1, 8, 2}, {3, 9, 4}}
	var batches [][]flow.Record
	var batch []flow.Record
	id := uint64(0)
	for p := data[1:min(len(data), 1+3*64)]; len(p) >= 3; p = p[3:] {
		b0, b1, b2 := p[0], p[1], p[2]
		if b2&1 == 0 || id == 0 {
			id++
		}
		start := time.Duration(b0)*250*time.Millisecond + time.Duration(b2>>3)*7*time.Millisecond
		if b2&4 != 0 {
			start += time.Minute
		}
		batch = append(batch, flow.Record{
			ID:       id,
			Start:    epoch.Add(start),
			Duration: time.Duration(b1>>6) * 300 * time.Millisecond,
			Src:      flow.Addr(b1 & 3),
			Dst:      flow.Addr(b1 >> 2 & 3),
			Bytes:    int64(b0)<<8 | int64(b1),
			Switches: paths[b1>>4&3],
		})
		if b2&2 != 0 {
			batches = append(batches, batch)
			batch = nil
		}
	}
	if len(batch) > 0 {
		batches = append(batches, batch)
	}
	return cfg, batches
}

// FuzzPushFrame is TestPushFrameMatchesPush over generated inputs: for any
// small record set — tied starts, duplicate ids, late rows, far-future
// rows, tumbling and hopping grids — and any batch split, PushFrame must
// emit the same windows with byte-identical frames as the per-record
// router, with equal Pending, Late and Skipped after every push.
func FuzzPushFrame(f *testing.F) {
	f.Add([]byte{0, 4, 0x12, 0, 40, 0x21, 2, 8, 0x33, 1, 60, 0x01, 2, 2, 0x12, 0})
	f.Add([]byte{1, 100, 0x05, 2, 10, 0x06, 1, 101, 0x05, 2, 0, 0x0a, 0, 50, 0x10, 2})
	f.Add([]byte{2, 0, 0, 0, 0, 0, 1, 30, 0x30, 2, 20, 0x30, 0, 90, 0xff, 2, 5, 0x10, 0})
	f.Add([]byte{3, 10, 0x01, 2, 60, 0x02, 2, 12, 0x03, 2, 120, 0x04, 2, 30, 0x05, 0})
	f.Add([]byte{4, 0, 0x01, 0, 4, 0x02, 4, 8, 0x03, 2, 1, 0x04, 0, 200, 0x05, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, batches := fuzzPushBatches(data)
		checkPushFrame(t, fmt.Sprintf("config %+v", cfg), cfg, batches)
	})
}
