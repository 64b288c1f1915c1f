// Package stream implements the incremental, watermark-driven windowing
// engine behind the streaming monitor.
//
// The batch monitor it replaces buffered every raw record, re-sorted the
// whole buffer on each feed, and rebuilt each window's columnar frame from
// scratch — per-feed cost grew with the buffered history. The engine
// instead takes each batch as a columnar frame (PushFrame, its only ingest:
// wire frames and archived windows as decoded, record batches through
// flow.NewFrame) and routes its rows into the flow.FrameBuilder of every
// open window they belong to (out-of-order arrivals included) — one
// path-table remap per touched window plus wholesale column appends, never
// a Record per row. The O(n log n) sort a window pays for its own frame
// happens once, inside FrameBuilder.Build, when the window closes.
//
// # Windowing and watermarks
//
// Windows live on a grid anchored at the earliest record of the first
// push: window k covers [anchor + k·Hop, anchor + k·Hop + Width), with k
// extending below zero while nothing has been emitted yet, so stragglers
// older than the anchor still land in correctly-bounded windows. Hop ==
// Width gives tumbling windows; Hop < Width overlapping ones, in which
// case a record belongs to every window covering its start time. The
// event-time watermark is the largest start time observed minus the
// allowed Lateness; a window closes when the watermark passes its end, so
// records up to Lateness out of order still land in the right window.
// Records arriving for an already-closed window are dropped and counted
// (Late) instead of being silently misfiled into a newer window — the
// failure mode of the batch path. Windows that close without records are
// still emitted (with an empty frame), so emission index and wall-clock
// grid stay aligned.
//
// # Pipelined analysis
//
// Closed windows are handed to the analyze callback on their own
// goroutines, at most MaxInFlight at a time (PushFrame blocks beyond that,
// providing backpressure), so window k+1 ingests while window k analyzes.
// Results are released strictly in window order regardless of completion
// order. Determinism discipline: a frame built from a record multiset is
// independent of arrival order, window analyses share no mutable state,
// and in-order release means any cross-window folding the caller does sees
// windows in the same order a serial loop would — so pipelined results are
// bit-identical to serial ones.
//
// Every analysis goroutine, after posting its result, raises the Completed
// signal: a coalescing capacity-1 channel, sent to without blocking, so a
// caller that wants to release a window when its analysis finishes — not at
// its next push — can park a goroutine on it and call Ready when it fires.
// The send is the only thing the engine does outside its caller's
// serialization: Ready still runs on (or is locked with) the feeding
// goroutine. A signal means "some window finished", not "Ready is
// non-empty" — a window that finishes ahead of an earlier one raises it
// and Ready yields nothing — and a caller that never reads it costs the
// analysis goroutines nothing.
package stream

import (
	"context"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/flow"
)

// Config parameterizes an Engine.
type Config struct {
	// Width is the window width. Required (> 0).
	Width time.Duration
	// Hop is the window stride. 0 defaults to Width (tumbling); Hop must
	// not exceed Width (larger hops would drop records between windows).
	Hop time.Duration
	// Lateness is the allowed out-of-orderness: a window [s, s+Width)
	// closes once a record at or past s+Width+Lateness is observed.
	Lateness time.Duration
	// MaxInFlight bounds concurrently analyzing windows. 0 defaults to 1
	// (no pipelining).
	MaxInFlight int
	// MaxEmptyRun bounds the number of consecutive empty windows emitted
	// for one event-time gap; a longer run is skipped in one jump and
	// counted by Skipped, so a single corrupt far-future timestamp cannot
	// stall the engine emitting one empty window per grid slot across the
	// gap. 0 defaults to DefaultMaxEmptyRun.
	MaxEmptyRun int
	// Anchor pre-sets the event-time grid origin instead of anchoring at
	// the earliest record of the first push. Deterministic replay uses it:
	// a recorded session whose grid was anchored by a record that was not
	// the globally earliest (an out-of-order straggler opened an earlier
	// window) can only be reproduced by restoring the original origin.
	// Zero means anchor at the first push, the default.
	Anchor time.Time
	// Resume restores a prior session's grid position (see State) so the
	// engine continues emitting at the next window instead of starting
	// over. When set, Anchor is ignored — the state carries its own. The
	// feeder must re-push, in the original order, every record whose start
	// falls at or after the next window's start; records before it are
	// dropped as late, which is harmless on resume.
	Resume *State
}

// State is the engine's grid-continuity snapshot: everything a restarted
// engine needs to emit the next window on the same grid with the same
// emission index. Capture it with StateAfter at a window boundary and hand
// it to Config.Resume.
type State struct {
	// Anchor is the event-time grid origin, UnixNano.
	Anchor int64
	// MaxEvent is the watermark basis: the largest record start observed
	// (UnixNano) as of the snapshot.
	MaxEvent int64
	// NextK is the smallest grid index not yet emitted.
	NextK int64
	// Seq is the next emission index.
	Seq int
	// Late and Skipped carry the session counters across the restart.
	// They are informational: a resumed feeder re-pushing pre-boundary
	// records inflates Late relative to the uninterrupted session.
	Late, Skipped uint64
}

// DefaultMaxEmptyRun is the default bound on consecutive empty windows
// emitted across an event-time gap — generous for real collection pauses,
// small enough that a corrupt timestamp decades ahead costs one jump.
const DefaultMaxEmptyRun = 1024

func (c Config) withDefaults() Config {
	if c.Hop <= 0 {
		c.Hop = c.Width
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 1
	}
	if c.MaxEmptyRun <= 0 {
		c.MaxEmptyRun = DefaultMaxEmptyRun
	}
	return c
}

// Window locates one emitted window.
type Window struct {
	// Seq is the 0-based emission index; windows are emitted in strictly
	// increasing Seq order with no gaps.
	Seq int
	// Start and End bound the window: records with Start in [Start, End).
	Start, End time.Time
}

// Result is the outcome of analyzing one window.
type Result[R any] struct {
	Window Window
	// Rows is the number of records the window held (0 for an empty
	// window, which is still emitted).
	Rows int
	// Frame is the window's immutable columnar frame — the exact input the
	// analyze callback saw. Archive sinks persist it; it is never nil.
	Frame *flow.Frame
	Value R
	Err   error
}

// Engine is the streaming ingest-and-analyze loop. Construct with New.
// Feed it from one goroutine; the analyze callback runs on engine-owned
// goroutines and must be safe to run concurrently with itself (window
// analyses share no frame).
type Engine[R any] struct {
	cfg     Config
	analyze func(ctx context.Context, w Window, f *flow.Frame) (R, error)

	anchored bool
	anchor   int64 // grid origin, UnixNano of the first push's earliest record
	maxEvent int64 // largest record start observed, UnixNano
	// nextK is the smallest grid index not yet emitted. Until the first
	// dispatch (started == false) it tracks the smallest index opened so
	// far — which may go negative while within-lateness stragglers older
	// than the anchor arrive; afterwards it only advances, and records for
	// indices below it are late.
	nextK   int64
	haveK   bool
	started bool
	seq     int
	open    map[int64]*openWindow
	late    uint64
	skipped uint64
	pending int

	sem      chan struct{}
	inflight []chan Result[R]
	// done is the completion signal: capacity 1, sent to without blocking
	// by every analysis goroutine after it has posted its result.
	done chan struct{}
}

type openWindow struct {
	b    *flow.FrameBuilder
	rows int
}

// New returns an engine that hands every closed window's frame to analyze.
// cfg.Width must be positive and cfg.Hop at most cfg.Width; New panics
// otherwise (the public monitor layer validates user input).
func New[R any](cfg Config, analyze func(ctx context.Context, w Window, f *flow.Frame) (R, error)) *Engine[R] {
	cfg = cfg.withDefaults()
	if cfg.Width <= 0 {
		panic("stream: non-positive window width")
	}
	if cfg.Hop > cfg.Width {
		panic("stream: hop exceeds window width")
	}
	e := &Engine[R]{
		cfg:     cfg,
		analyze: analyze,
		open:    make(map[int64]*openWindow),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		done:    make(chan struct{}, 1),
	}
	switch {
	case cfg.Resume != nil:
		s := cfg.Resume
		e.anchored = true
		e.anchor = s.Anchor
		e.maxEvent = s.MaxEvent
		e.nextK = s.NextK
		e.haveK = true
		e.started = true
		e.seq = s.Seq
		e.late = s.Late
		e.skipped = s.Skipped
	case !cfg.Anchor.IsZero():
		e.anchored = true
		e.anchor = cfg.Anchor.UnixNano()
		e.maxEvent = e.anchor
	}
	return e
}

// StateAfter captures the grid state as of the release of window w: a new
// engine resumed from it emits w's successor next, on the same grid, with
// the same emission index the uninterrupted session would have used. The
// watermark basis is reconstructed from the window's close condition (its
// end plus the allowed lateness) rather than the live maxEvent, which may
// already reflect records past the snapshot boundary.
func (e *Engine[R]) StateAfter(w Window) State {
	k := FloorDiv(w.Start.UnixNano()-e.anchor, int64(e.cfg.Hop))
	return State{
		Anchor:   e.anchor,
		MaxEvent: w.End.UnixNano() + int64(e.cfg.Lateness),
		NextK:    k + 1,
		Seq:      w.Seq + 1,
		Late:     e.late,
		Skipped:  e.skipped,
	}
}

// Anchor returns the event-time grid origin (zero until the first push
// anchors it).
func (e *Engine[R]) Anchor() time.Time {
	if !e.anchored {
		return time.Time{}
	}
	return time.Unix(0, e.anchor).UTC()
}

// Late returns the number of dropped record-to-window assignments: each
// record that arrived after one of its windows had already closed counts
// once per missed window (with overlapping windows a record can be late
// for one window and on time for the next).
func (e *Engine[R]) Late() uint64 { return e.late }

// Pending returns the number of record-to-window assignments buffered in
// open windows.
func (e *Engine[R]) Pending() int { return e.pending }

// Skipped returns the number of empty grid slots jumped over because their
// run exceeded MaxEmptyRun.
func (e *Engine[R]) Skipped() uint64 { return e.skipped }

// Watermark returns the current event-time watermark (zero before the
// first record).
func (e *Engine[R]) Watermark() time.Time {
	if !e.anchored {
		return time.Time{}
	}
	return time.Unix(0, e.maxEvent-int64(e.cfg.Lateness)).UTC()
}

// PushFrame ingests one batch of rows (any order) and dispatches every
// window the advanced watermark closes — the engine's only ingest: the
// daemon's wire frames, archive replay and record batches (as
// flow.NewFrame) all arrive here. A nil or empty frame is a no-op. Rows
// route to their windows with one path-table remap per touched window
// (FrameBuilder.InternTable + AppendFrameRows), never as a Record each;
// frames being canonical under Build, every emitted frame depends only on
// the row multiset a window received. On the first push the grid anchors at
// the frame's earliest start. PushFrame blocks only when more than
// MaxInFlight windows would be analyzing at once; ctx bounds that wait and
// the dispatched analyses. Completed results are collected with Ready (or
// Flush), not returned here.
func (e *Engine[R]) PushFrame(ctx context.Context, f *flow.Frame) error {
	if f == nil || f.Len() == 0 {
		return nil
	}
	n := f.Len()
	if !e.anchored {
		e.anchor = f.MinStartNanos()
		e.maxEvent = e.anchor
		e.anchored = true
	}
	if t := f.MaxStartNanos(); t > e.maxEvent {
		e.maxEvent = t
	}
	hop, width := int64(e.cfg.Hop), int64(e.cfg.Width)
	// Fast path: the frame's earliest and latest rows each belong to
	// exactly one window and it is the same one — then so does every row
	// between them (window assignment is monotone in start time), and the
	// whole frame bulk-appends with no per-row routing. This is the common
	// shape when replaying an archived session on its original grid.
	loD := f.MinStartNanos() - e.anchor
	hiD := f.MaxStartNanos() - e.anchor
	if k := FloorDiv(loD, hop); k == FloorDiv(hiD, hop) &&
		FloorDiv(loD-width, hop)+1 == k && FloorDiv(hiD-width, hop)+1 == k {
		e.routeRows(f, k, nil, n)
		return e.closeDue(ctx)
	}
	// General path: bucket row indices per window index, then bulk-append
	// each bucket. Buckets are processed in ascending k for determinism of
	// builder allocation order (the emitted frames do not depend on it).
	buckets := make(map[int64][]int32)
	ks := make([]int64, 0, 4)
	for i := 0; i < n; i++ {
		d := f.StartNanos(i) - e.anchor
		kHi := FloorDiv(d, hop)
		kLo := FloorDiv(d-width, hop) + 1
		for k := kLo; k <= kHi; k++ {
			if _, ok := buckets[k]; !ok {
				ks = append(ks, k)
			}
			buckets[k] = append(buckets[k], int32(i))
		}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	for _, k := range ks {
		rows := buckets[k]
		e.routeRows(f, k, rows, len(rows))
	}
	return e.closeDue(ctx)
}

// routeRows lands count rows of f (all rows when rows is nil) in window k —
// the one place a row is placed on the grid, counted late or counted
// pending. The grid extends below the anchor (negative k) while nothing has
// been emitted yet, so within-lateness stragglers older than the first
// push's minimum still land in their own correctly-bounded windows; once
// emission has begun, rows for an index below nextK are late. Within one
// push started does not change and nextK only takes that backward minimum,
// so the outcome is independent of the order rows and buckets arrive in.
// Each call interns f's whole path table into the window's builder once;
// Build drops whatever the window's rows never reference.
func (e *Engine[R]) routeRows(f *flow.Frame, k int64, rows []int32, count int) {
	if e.haveK && k < e.nextK {
		if e.started {
			e.late += uint64(count)
			return
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
	w.b.Grow(count)
	remap := w.b.InternTable(f.PathTable())
	w.b.AppendFrameRows(f, remap, rows)
	w.rows += count
	e.pending += count
}

// closeDue dispatches every window the current watermark closes. It runs
// once per push, after the whole batch landed (so haveK holds), and rows
// within one push never race their own batch's watermark.
func (e *Engine[R]) closeDue(ctx context.Context) error {
	wm := e.maxEvent - int64(e.cfg.Lateness)
	return e.dispatchThrough(ctx, FloorDiv(wm-e.anchor-int64(e.cfg.Width), int64(e.cfg.Hop)))
}

// dispatchThrough dispatches grid slots nextK..kMax in order, jumping runs
// of empty slots longer than MaxEmptyRun — the loop closeDue and Flush
// share.
func (e *Engine[R]) dispatchThrough(ctx context.Context, kMax int64) error {
	for e.nextK <= kMax {
		e.skipEmptyRun(kMax)
		if e.nextK > kMax {
			break
		}
		if err := e.dispatch(ctx, e.nextK); err != nil {
			return err
		}
	}
	return nil
}

// skipEmptyRun jumps nextK over a run of empty grid slots longer than
// MaxEmptyRun, landing on the next open window (or just past kMax). Short
// runs are left alone — they emit one empty window per slot, keeping
// emission aligned with wall clock across ordinary collection gaps.
func (e *Engine[R]) skipEmptyRun(kMax int64) {
	if e.open[e.nextK] != nil {
		return
	}
	next := kMax + 1
	for k := range e.open {
		if k >= e.nextK && k < next {
			next = k
		}
	}
	if run := next - e.nextK; run > int64(e.cfg.MaxEmptyRun) {
		e.skipped += uint64(run)
		e.nextK = next
	}
}

func (e *Engine[R]) windowStart(k int64) int64 { return e.anchor + k*int64(e.cfg.Hop) }
func (e *Engine[R]) windowEnd(k int64) int64   { return e.windowStart(k) + int64(e.cfg.Width) }

// dispatch closes window k (possibly empty) and hands it to an analysis
// goroutine, blocking while MaxInFlight analyses are already running.
func (e *Engine[R]) dispatch(ctx context.Context, k int64) error {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	w := e.open[k]
	delete(e.open, k)
	win := Window{
		Seq:   e.seq,
		Start: time.Unix(0, e.windowStart(k)).UTC(),
		End:   time.Unix(0, e.windowEnd(k)).UTC(),
	}
	e.seq++
	e.nextK = k + 1
	e.started = true
	var b *flow.FrameBuilder
	rows := 0
	if w != nil {
		b, rows = w.b, w.rows
		e.pending -= rows
	}
	ch := make(chan Result[R], 1)
	e.inflight = append(e.inflight, ch)
	go func() {
		defer func() { <-e.sem }()
		var f *flow.Frame
		if b != nil {
			f = b.Build()
		} else {
			f = flow.NewFrame(nil)
		}
		v, err := e.analyze(ctx, win, f)
		ch <- Result[R]{Window: win, Rows: rows, Frame: f, Value: v, Err: err}
		select {
		case e.done <- struct{}{}:
		default: // already raised; one wake-up collects every posted result
		}
	}()
	return nil
}

// Completed returns the completion signal: it becomes receivable after an
// analysis has posted its result, at most one signal outstanding however
// many analyses finished since it was last received. It is the one engine
// member safe to use from a goroutine other than the feeder's.
func (e *Engine[R]) Completed() <-chan struct{} { return e.done }

// Ready returns, without blocking, every completed result that is next in
// window order. A finished window is withheld while an earlier one is
// still analyzing, so results never arrive out of order.
func (e *Engine[R]) Ready() []Result[R] {
	var out []Result[R]
	for len(e.inflight) > 0 {
		select {
		case res := <-e.inflight[0]:
			out = append(out, res)
			e.inflight = e.inflight[1:]
		default:
			return out
		}
	}
	return out
}

// Flush closes every remaining open window — including empty grid slots
// between them, keeping emission aligned with the grid — waits for all
// in-flight analyses, and returns their results in window order. The
// engine is drained afterwards; it can keep ingesting (the grid and
// watermark persist).
func (e *Engine[R]) Flush(ctx context.Context) ([]Result[R], error) {
	var dispatchErr error
	if e.haveK {
		maxK := e.nextK - 1
		for k := range e.open {
			if k > maxK {
				maxK = k
			}
		}
		dispatchErr = e.dispatchThrough(ctx, maxK)
	}
	out := make([]Result[R], 0, len(e.inflight))
	for _, ch := range e.inflight {
		out = append(out, <-ch)
	}
	e.inflight = nil
	return out, dispatchErr
}

// FloorDiv is integer division rounding toward negative infinity — the
// engine's grid-index arithmetic (exported for the serial-loop test oracle
// and bench/).
func FloorDiv(a, b int64) int64 {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
