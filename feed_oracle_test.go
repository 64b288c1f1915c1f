package llmprism

import (
	"context"
	"sort"
	"testing"
	"time"

	"github.com/llmprism/llmprism/internal/stream"
)

// feedOracle is the serial tumbling-window monitor loop, the reference the
// pipelined session is compared against (ROADMAP, "Reference oracles
// stay"): records buffer in (start, id) order, windows are cut on a grid
// anchored at the first record, each completed window's record slice goes
// through Analyzer.AnalyzeContext, and reports are annotated in window
// order. It borrows the wrapped Monitor's analyzer, mapper, geometry and
// continuity trackers and shares nothing with the streaming engine but two
// pieces of grid arithmetic (stream.FloorDiv, stream.DefaultMaxEmptyRun),
// so the equivalence tests compare two independent implementations.
type feedOracle struct {
	m    *Monitor
	buf  []FlowRecord // sorted by (start, id)
	next time.Time    // start of the next grid window; zero until anchored
	seq  int
}

// feed ingests one batch and analyzes every window the newest record
// closes, oldest first — empty windows included.
func (o *feedOracle) feed(records []FlowRecord) ([]*Report, error) {
	if len(records) == 0 {
		return nil, nil
	}
	o.buf = append(o.buf, records...)
	// Stable: exact (start, id) ties keep arrival order, as they do in the
	// engine's per-window builders.
	sort.SliceStable(o.buf, func(i, j int) bool {
		a, b := &o.buf[i], &o.buf[j]
		if !a.Start.Equal(b.Start) {
			return a.Start.Before(b.Start)
		}
		return a.ID < b.ID
	})
	if o.next.IsZero() {
		// UTC-normalized, like the engine's grid, so stamped bounds are
		// identical whatever location the input records carry.
		o.next = o.buf[0].Start.UTC()
	}
	var reports []*Report
	closes := o.m.cfg.window + o.m.cfg.lateness
	newest := o.buf[len(o.buf)-1].Start
	for newest.Sub(o.next) >= closes {
		o.skipEmptyRun(newest)
		if newest.Sub(o.next) < closes {
			break
		}
		r, err := o.closeWindow()
		if err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// flush analyzes whatever remains buffered, one report per grid window —
// with a lateness bound the remainder can span several.
func (o *feedOracle) flush() ([]*Report, error) {
	var reports []*Report
	for len(o.buf) > 0 {
		o.skipEmptyRun(time.Time{})
		r, err := o.closeWindow()
		if err != nil {
			return reports, err
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// closeWindow analyzes and consumes the buffered records of the next grid
// window [next, next+window) and advances the grid.
func (o *feedOracle) closeWindow() (*Report, error) {
	end := o.next.Add(o.m.cfg.window)
	cut := sort.Search(len(o.buf), func(i int) bool { return !o.buf[i].Start.Before(end) })
	report := &Report{}
	if cut > 0 {
		var err error
		report, err = o.m.analyzer.AnalyzeContext(context.Background(), o.buf[:cut], o.m.mapper)
		if err != nil {
			return nil, err
		}
	}
	report.Window = WindowInfo{Seq: o.seq, Start: o.next, End: end}
	o.seq++
	o.m.annotate(report, cut)
	o.buf = o.buf[cut:]
	o.next = end
	return report, nil
}

// skipEmptyRun jumps the grid over a run of empty windows longer than
// stream.DefaultMaxEmptyRun slots — the mirror of the engine's guard
// against a corrupt far-future timestamp. Like the engine's push-time
// jump, the target is capped at the first window the watermark (newest −
// lateness) cannot close yet; flush passes the zero time to jump all the
// way to the earliest buffered record's window, like the engine's Flush.
// Shorter runs still emit their empty reports.
func (o *feedOracle) skipEmptyRun(newest time.Time) {
	if len(o.buf) == 0 || o.buf[0].Start.Before(o.next) {
		return
	}
	w := int64(o.m.cfg.window)
	slots := stream.FloorDiv(int64(o.buf[0].Start.Sub(o.next)), w)
	if !newest.IsZero() {
		closable := stream.FloorDiv(int64(newest.Sub(o.next)-o.m.cfg.lateness)-w, w) + 1
		if closable < slots {
			slots = closable
		}
	}
	if slots > stream.DefaultMaxEmptyRun {
		o.next = o.next.Add(time.Duration(slots) * o.m.cfg.window)
	}
}

// feedAll runs records through a feedOracle over m in fixed-size batches,
// flushes, and returns every report in window order — pushAll's
// counterpart. m must be fresh and tumbling.
func feedAll(t *testing.T, m *Monitor, records []FlowRecord, batch int) []*Report {
	t.Helper()
	if m.cfg.hop != m.cfg.window {
		t.Fatalf("feed oracle needs tumbling windows (hop %v != window %v)", m.cfg.hop, m.cfg.window)
	}
	o := &feedOracle{m: m}
	var reports []*Report
	for lo := 0; lo < len(records); lo += batch {
		got, err := o.feed(records[lo:min(lo+batch, len(records))])
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, got...)
	}
	tail, err := o.flush()
	if err != nil {
		t.Fatal(err)
	}
	return append(reports, tail...)
}
