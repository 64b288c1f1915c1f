package stream

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

var epoch = time.Date(2026, 4, 1, 0, 0, 0, 0, time.UTC)

func rec(id uint64, at time.Duration) flow.Record {
	return flow.Record{ID: id, Start: epoch.Add(at), Src: 1, Dst: 2, Bytes: 100}
}

// summary is the test analyze output: window bounds plus the ids the
// window's frame holds, in canonical frame order.
type summary struct {
	Seq        int
	Start, End time.Duration
	IDs        []uint64
}

func summarize(w Window, f *flow.Frame) summary {
	s := summary{Seq: w.Seq, Start: w.Start.Sub(epoch), End: w.End.Sub(epoch)}
	for i := 0; i < f.Len(); i++ {
		s.IDs = append(s.IDs, f.ID(i))
	}
	return s
}

// push feeds records to e the way every caller does: as one frame.
func push[R any](ctx context.Context, e *Engine[R], records ...flow.Record) error {
	return e.PushFrame(ctx, flow.NewFrame(records))
}

func newSummaryEngine(cfg Config) *Engine[summary] {
	return New(cfg, func(_ context.Context, w Window, f *flow.Frame) (summary, error) {
		return summarize(w, f), nil
	})
}

func drainAll(t *testing.T, e *Engine[summary]) []summary {
	t.Helper()
	results, err := e.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]summary, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		out = append(out, r.Value)
	}
	return out
}

func TestTumblingWindows(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second})
	// Records in windows 0 and 1; a record at 25s closes both.
	err := push(context.Background(), e,
		rec(1, 1*time.Second), rec(2, 9*time.Second), rec(3, 12*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Ready(); len(got) != 0 {
		t.Fatalf("windows closed prematurely: %d", len(got))
	}
	if err := push(context.Background(), e, rec(4, 25*time.Second)); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	// The grid anchors at the earliest record of the first push (1s).
	want := []summary{
		{Seq: 0, Start: 1 * time.Second, End: 11 * time.Second, IDs: []uint64{1, 2}},
		{Seq: 1, Start: 11 * time.Second, End: 21 * time.Second, IDs: []uint64{3}},
		{Seq: 2, Start: 21 * time.Second, End: 31 * time.Second, IDs: []uint64{4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %+v, want %+v", got, want)
	}
}

func TestEmptyWindowsEmitted(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second})
	// A gap spanning windows 1 and 2: both must still be emitted.
	err := push(context.Background(), e, rec(1, 0), rec(2, 35*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	if len(got) != 4 {
		t.Fatalf("windows = %d, want 4 (two empty)", len(got))
	}
	for i, s := range got {
		if s.Seq != i {
			t.Errorf("window %d has seq %d", i, s.Seq)
		}
	}
	if got[1].IDs != nil || got[2].IDs != nil {
		t.Error("gap windows should be empty")
	}
}

func TestLatenessHoldsWindowsOpen(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second, Lateness: 5 * time.Second})
	// 12s does not close window 0 (watermark 7s); the out-of-order record
	// at 8s must still land in window 0.
	if err := push(context.Background(), e, rec(1, 2*time.Second), rec(2, 12*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := push(context.Background(), e, rec(3, 8*time.Second)); err != nil {
		t.Fatal(err)
	}
	// 15s pushes the watermark to 10s; window 0 ([2s,12s), grid anchored
	// at the first record) stays open until the flush.
	if err := push(context.Background(), e, rec(4, 15*time.Second)); err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	want := []summary{
		{Seq: 0, Start: 2 * time.Second, End: 12 * time.Second, IDs: []uint64{1, 3}},
		{Seq: 1, Start: 12 * time.Second, End: 22 * time.Second, IDs: []uint64{2, 4}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %+v, want %+v", got, want)
	}
	if e.Late() != 0 {
		t.Errorf("late = %d, want 0", e.Late())
	}
}

func TestLateRecordsDroppedAndCounted(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second})
	if err := push(context.Background(), e, rec(1, 0), rec(2, 11*time.Second)); err != nil {
		t.Fatal(err)
	}
	// Window 0 closed at watermark 11s; this record is late.
	if err := push(context.Background(), e, rec(3, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if e.Late() != 1 {
		t.Errorf("late = %d, want 1", e.Late())
	}
	got := drainAll(t, e)
	if !reflect.DeepEqual(got[0].IDs, []uint64{1}) {
		t.Errorf("window 0 ids = %v, want [1] (late record dropped, not misfiled)", got[0].IDs)
	}
}

// TestPreAnchorStragglerKept pins the negative-k grid: a within-lateness
// straggler older than the first push's minimum is not dropped — the grid
// extends backwards while nothing has been emitted, giving it its own
// correctly-bounded window.
func TestPreAnchorStragglerKept(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second, Lateness: 6 * time.Second})
	if err := push(context.Background(), e, rec(1, 10*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := push(context.Background(), e, rec(2, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if e.Late() != 0 {
		t.Fatalf("late = %d, want 0 (straggler within lateness)", e.Late())
	}
	got := drainAll(t, e)
	want := []summary{
		{Seq: 0, Start: 0, End: 10 * time.Second, IDs: []uint64{2}},
		{Seq: 1, Start: 10 * time.Second, End: 20 * time.Second, IDs: []uint64{1}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windows = %+v, want %+v", got, want)
	}
}

// TestPreAnchorRecordLateAfterEmission is the counterpart: once a window
// has been emitted, records for grid slots before it are genuinely late.
func TestPreAnchorRecordLateAfterEmission(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second})
	// 25s closes the anchor window [10s, 20s).
	if err := push(context.Background(), e, rec(1, 10*time.Second), rec(2, 25*time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := push(context.Background(), e, rec(3, 5*time.Second)); err != nil {
		t.Fatal(err)
	}
	if e.Late() != 1 {
		t.Errorf("late = %d, want 1", e.Late())
	}
}

func TestHoppedWindows(t *testing.T) {
	// Width 10, hop 5: record at t belongs to the two windows covering it,
	// including the leading partial phase window that starts before the
	// anchor (grid index -1).
	e := newSummaryEngine(Config{Width: 10 * time.Second, Hop: 5 * time.Second})
	err := push(context.Background(), e,
		rec(1, 1*time.Second),  // windows -1 and 0
		rec(2, 7*time.Second),  // windows 0 and 1
		rec(3, 12*time.Second), // windows 1 and 2
		rec(4, 40*time.Second),
	)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	if len(got) < 4 {
		t.Fatalf("windows = %d, want >= 4", len(got))
	}
	wantIDs := [][]uint64{{1}, {1, 2}, {2, 3}, {3}}
	for i, want := range wantIDs {
		if !reflect.DeepEqual(got[i].IDs, want) {
			t.Errorf("window %d ids = %v, want %v", i, got[i].IDs, want)
		}
		// Anchor 1s; the first emitted window is grid index -1.
		if wantStart := time.Second + time.Duration(i-1)*5*time.Second; got[i].Start != wantStart {
			t.Errorf("window %d start = %v, want %v", i, got[i].Start, wantStart)
		}
	}
}

// TestPipelinedOrderingDeterministic runs a many-window trace through
// MaxInFlight worker analyses whose completion order is scrambled by the
// scheduler, and checks results still arrive in window order and identical
// to the serial run. Run with -race to verify the handoff.
func TestPipelinedOrderingDeterministic(t *testing.T) {
	build := func(inFlight int) []summary {
		var active, peak int32
		e := New(Config{Width: 10 * time.Second, MaxInFlight: inFlight},
			func(_ context.Context, w Window, f *flow.Frame) (summary, error) {
				n := atomic.AddInt32(&active, 1)
				for {
					p := atomic.LoadInt32(&peak)
					if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
						break
					}
				}
				time.Sleep(time.Duration(rand.Intn(3)) * time.Millisecond)
				atomic.AddInt32(&active, -1)
				return summarize(w, f), nil
			})
		var id uint64
		for at := time.Duration(0); at < 200*time.Second; at += time.Second {
			id++
			if err := push(context.Background(), e, rec(id, at)); err != nil {
				t.Fatal(err)
			}
		}
		results, err := e.Flush(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]summary, 0, len(results))
		for _, r := range results {
			out = append(out, r.Value)
		}
		if inFlight > 1 && peak < 2 {
			t.Logf("pipelining never overlapped (peak %d); scheduling artifact, results still checked", peak)
		}
		return out
	}
	serial := build(1)
	if len(serial) != 20 {
		t.Fatalf("windows = %d, want 20", len(serial))
	}
	for _, inFlight := range []int{2, 4} {
		if got := build(inFlight); !reflect.DeepEqual(serial, got) {
			t.Errorf("MaxInFlight=%d diverges from serial results", inFlight)
		}
	}
}

// TestPermutationInvariance is the engine-level ordering property: any
// arrival permutation that respects the lateness bound yields identical
// results and no late drops.
func TestPermutationInvariance(t *testing.T) {
	const lateness = 4 * time.Second
	var records []flow.Record
	for i := 0; i < 120; i++ {
		records = append(records, rec(uint64(i+1), time.Duration(i)*500*time.Millisecond))
	}
	run := func(seed int64) []summary {
		e := newSummaryEngine(Config{Width: 10 * time.Second, Lateness: lateness})
		// Shuffle within lateness/2-wide chunks: displacement stays under
		// the bound. Chunked pushes keep the grid anchor at the global
		// minimum.
		perm := append([]flow.Record(nil), records...)
		if seed >= 0 {
			rng := rand.New(rand.NewSource(seed))
			chunk := 4 // 4 records = 2s span < lateness
			for lo := 0; lo < len(perm); lo += chunk {
				hi := lo + chunk
				if hi > len(perm) {
					hi = len(perm)
				}
				rng.Shuffle(hi-lo, func(i, j int) { perm[lo+i], perm[lo+j] = perm[lo+j], perm[lo+i] })
			}
		}
		for lo := 0; lo < len(perm); lo += 4 {
			hi := lo + 4
			if hi > len(perm) {
				hi = len(perm)
			}
			if err := push(context.Background(), e, perm[lo:hi]...); err != nil {
				t.Fatal(err)
			}
		}
		if e.Late() != 0 {
			t.Fatalf("seed %d: late = %d, want 0", seed, e.Late())
		}
		return drainAll(t, e)
	}
	want := run(-1)
	for seed := int64(0); seed < 5; seed++ {
		if got := run(seed); !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: permuted arrival diverges", seed)
		}
	}
}

func TestAnalyzeErrorSurfaced(t *testing.T) {
	e := New(Config{Width: 10 * time.Second}, func(_ context.Context, w Window, f *flow.Frame) (int, error) {
		if w.Seq == 1 {
			return 0, fmt.Errorf("boom")
		}
		return f.Len(), nil
	})
	err := push(context.Background(), e, rec(1, 0), rec(2, 12*time.Second), rec(3, 25*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	results, err := e.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3", len(results))
	}
	if results[0].Err != nil || results[1].Err == nil || results[2].Err != nil {
		t.Errorf("error not attached to the failing window: %v", results)
	}
}

func TestPushCanceledContext(t *testing.T) {
	block := make(chan struct{})
	e := New(Config{Width: 10 * time.Second, MaxInFlight: 1},
		func(ctx context.Context, w Window, f *flow.Frame) (int, error) {
			if w.Seq == 0 {
				<-block
			}
			return f.Len(), nil
		})
	ctx, cancel := context.WithCancel(context.Background())
	// Window 0 dispatches and parks; window 1 needs the only slot.
	if err := push(ctx, e, rec(1, 0), rec(2, 12*time.Second)); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := push(ctx, e, rec(3, 25*time.Second))
	if err == nil {
		t.Error("blocked dispatch ignored cancellation")
	}
	close(block)
}

func TestWatermarkAndPending(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second, Lateness: 3 * time.Second})
	if !e.Watermark().IsZero() {
		t.Error("watermark before any record should be zero")
	}
	if err := push(context.Background(), e, rec(1, 8*time.Second)); err != nil {
		t.Fatal(err)
	}
	if got, want := e.Watermark(), epoch.Add(5*time.Second); !got.Equal(want) {
		t.Errorf("watermark = %v, want %v", got, want)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	drainAll(t, e)
	if e.Pending() != 0 {
		t.Errorf("pending after flush = %d, want 0", e.Pending())
	}
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int64 }{
		{7, 3, 2}, {-7, 3, -3}, {6, 3, 2}, {-6, 3, -2}, {0, 5, 0}, {-1, 10, -1},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.want {
			t.Errorf("FloorDiv(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestHugeGapSkipsEmptyRun pins the corrupt-timestamp guard: one record
// decades ahead must not make the engine emit one empty window per grid
// slot across the gap.
func TestHugeGapSkipsEmptyRun(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second})
	err := push(context.Background(), e,
		rec(1, 0),
		rec(2, 10*365*24*time.Hour), // ~10 years ahead
	)
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	if len(got) > 3 {
		t.Fatalf("windows emitted = %d, want a handful (gap skipped, not enumerated)", len(got))
	}
	if e.Skipped() == 0 {
		t.Error("skipped counter = 0, want the jumped slots counted")
	}
	if got[0].IDs[0] != 1 || got[len(got)-1].IDs[0] != 2 {
		t.Errorf("data windows lost across the gap: %+v", got)
	}
}

// TestShortGapStillEmitsEmpties guards the other side: ordinary gaps keep
// their per-slot empty windows so emission stays wall-clock aligned.
func TestShortGapStillEmitsEmpties(t *testing.T) {
	e := newSummaryEngine(Config{Width: 10 * time.Second, MaxEmptyRun: 8})
	err := push(context.Background(), e, rec(1, 0), rec(2, 55*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	got := drainAll(t, e)
	if len(got) != 6 {
		t.Fatalf("windows = %d, want 6 (4 empties emitted, run below bound)", len(got))
	}
	if e.Skipped() != 0 {
		t.Errorf("skipped = %d, want 0", e.Skipped())
	}
}

func TestResumeContinuesGrid(t *testing.T) {
	cfg := Config{Width: 10 * time.Second, Hop: 5 * time.Second, Lateness: 3 * time.Second}
	// A hopped, late-tolerant stream pushed in small out-of-order batches.
	rng := rand.New(rand.NewSource(11))
	var batches [][]flow.Record
	var id uint64
	for base := time.Duration(0); base < 90*time.Second; base += 2 * time.Second {
		var b []flow.Record
		for i := 0; i < 3; i++ {
			id++
			jitter := time.Duration(rng.Int63n(int64(2 * time.Second)))
			b = append(b, rec(id, base+jitter))
		}
		batches = append(batches, b)
	}

	run := func(e *Engine[summary], batches [][]flow.Record) []summary {
		var out []summary
		for _, b := range batches {
			if err := push(context.Background(), e, b...); err != nil {
				t.Fatal(err)
			}
			for _, r := range e.Ready() {
				out = append(out, r.Value)
			}
		}
		for _, r := range drainAll(t, e) {
			out = append(out, r)
		}
		return out
	}

	ref := run(newSummaryEngine(cfg), batches)
	if len(ref) < 6 {
		t.Fatalf("reference run emitted %d windows", len(ref))
	}

	// Checkpoint the live engine at each released window boundary and
	// verify a resumed engine reproduces the tail exactly.
	for _, cut := range []int{0, 2, 12} {
		e := newSummaryEngine(cfg)
		var st *State
		var rest [][]flow.Record
	feed:
		for bi, b := range batches {
			if err := push(context.Background(), e, b...); err != nil {
				t.Fatal(err)
			}
			for _, r := range e.Ready() {
				if r.Window.Seq == cut {
					s := e.StateAfter(r.Window)
					st = &s
					rest = batches[bi+1:]
					break feed
				}
			}
		}
		if st == nil {
			t.Fatalf("cut %d never released", cut)
		}
		// Re-feed the original stream from the resume point: every record
		// at or after the next window's start, in original batch order.
		from := time.Unix(0, st.Anchor+st.NextK*int64(cfg.Hop)).UTC()
		var refeed [][]flow.Record
		for _, b := range batches[:len(batches)-len(rest)] {
			var keep []flow.Record
			for _, r := range b {
				if !r.Start.Before(from) {
					keep = append(keep, r)
				}
			}
			if len(keep) > 0 {
				refeed = append(refeed, keep)
			}
		}
		refeed = append(refeed, rest...)
		got := run(New(Config{
			Width: cfg.Width, Hop: cfg.Hop, Lateness: cfg.Lateness, Resume: st,
		}, func(_ context.Context, w Window, f *flow.Frame) (summary, error) {
			return summarize(w, f), nil
		}), refeed)
		if !reflect.DeepEqual(got, ref[cut+1:]) {
			t.Errorf("cut %d: resumed tail = %+v, want %+v", cut, got, ref[cut+1:])
		}
	}
}

// awaitCompleted receives the engine's completion signal or fails the test.
func awaitCompleted[R any](t *testing.T, e *Engine[R]) {
	t.Helper()
	select {
	case <-e.Completed():
	case <-time.After(30 * time.Second):
		t.Fatal("completion signal never raised")
	}
}

// TestCompletedSignalOutOfOrder pins what the signal means: "an analysis
// posted its result", not "Ready is non-empty". Window 1 finishing ahead of
// window 0 raises it and Ready still withholds everything; window 0
// finishing raises it again and Ready yields both, in order.
func TestCompletedSignalOutOfOrder(t *testing.T) {
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	e := New(Config{Width: 10 * time.Second, MaxInFlight: 2},
		func(_ context.Context, w Window, f *flow.Frame) (summary, error) {
			<-gates[w.Seq]
			return summarize(w, f), nil
		})
	if err := push(context.Background(), e, rec(1, 0), rec(2, 12*time.Second), rec(3, 25*time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(e.inflight) != 2 {
		t.Fatalf("in flight = %d, want 2", len(e.inflight))
	}
	select {
	case <-e.Completed():
		t.Fatal("signal raised before any analysis finished")
	default:
	}

	close(gates[1])
	awaitCompleted(t, e)
	if got := e.Ready(); len(got) != 0 {
		t.Fatalf("Ready released %d results while window 0 is still analyzing", len(got))
	}

	close(gates[0])
	awaitCompleted(t, e)
	got := e.Ready()
	if len(got) != 2 || got[0].Window.Seq != 0 || got[1].Window.Seq != 1 {
		t.Fatalf("Ready after window 0 finished = %+v, want windows 0 then 1", got)
	}
	if !reflect.DeepEqual(got[0].Value.IDs, []uint64{1}) || !reflect.DeepEqual(got[1].Value.IDs, []uint64{2}) {
		t.Errorf("released values = %+v", got)
	}
}

// TestCompletedSignalNeverBlocksAnalysis: the CLI's single-goroutine
// sessions never read the signal. A hundred analyses must all finish and
// free their pipeline slots anyway (a blocked send would wedge Push on the
// depth bound), Flush must return every window in order, and the hundred
// completions must have coalesced into one outstanding signal.
func TestCompletedSignalNeverBlocksAnalysis(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	e := newSummaryEngine(Config{Width: 10 * time.Second, MaxInFlight: 2})
	const windows = 100
	for i := 0; i < windows; i++ {
		if err := push(ctx, e, rec(uint64(i+1), time.Duration(i)*10*time.Second)); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
	results, err := e.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != windows {
		t.Fatalf("Flush returned %d windows, want %d", len(results), windows)
	}
	for i, r := range results {
		if r.Window.Seq != i || !reflect.DeepEqual(r.Value.IDs, []uint64{uint64(i + 1)}) {
			t.Fatalf("result %d = seq %d ids %v", i, r.Window.Seq, r.Value.IDs)
		}
	}
	// Flush returns once the last result is posted; its goroutine signals
	// after that and frees its slot last. Holding every slot means every
	// send has happened.
	for i := 0; i < cap(e.sem); i++ {
		e.sem <- struct{}{}
	}
	select {
	case <-e.Completed():
	default:
		t.Fatal("no signal outstanding after 100 completions")
	}
	select {
	case <-e.Completed():
		t.Fatal("completions did not coalesce: a second signal was outstanding")
	default:
	}
}
