package session

import (
	"context"
	"fmt"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
)

// Replay is a Session driven from a recorded binary trace — a single-file
// LPA1 archive or a rotated multi-segment store directory — instead of
// live records: the recording's window geometry and grid anchor override
// the config's, so the replayed session reproduces the recorded reports
// bit for bit, however the capture was cut into segments.
type Replay struct {
	*Session
	st *archive.Store
	// Recovery describes what a salvage open of a torn or unclosed
	// capture had to reconcile. It is nil when the trace opened cleanly
	// (including a clean open under salvage mode).
	Recovery *archive.StoreRecovery
}

// OpenReplay reopens a recorded trace — a store directory or a plain
// archive file — and builds a fresh session on the recorded window grid.
// The config's Window and Lateness are used only for archives from
// unwindowed captures (zero recorded width); its capture and resume
// fields are ignored — a replay never re-records itself, and the grid
// anchor comes from the recording. With salvage set, a torn or unclosed
// capture is recovered to what its intact windows allow (Recovery then
// says what was reconciled); otherwise such captures are rejected.
// Captures recorded with overlapping windows (hop < width) are refused:
// their records would be duplicated across windows.
func OpenReplay(ctx context.Context, cfg Config, path string, salvage bool) (*Replay, error) {
	st, recovery, err := openTrace(path, salvage)
	if err != nil {
		return nil, err
	}
	meta := st.Meta()
	if meta.Width == 0 {
		// Unwindowed capture: the config supplies the grid.
		meta.Width, meta.Hop, meta.Lateness = cfg.Window, cfg.Window, cfg.Lateness
	}
	if meta.Hop > 0 && meta.Hop < meta.Width {
		return nil, fmt.Errorf("replay: archive recorded overlapping windows (hop %v < width %v); records would be duplicated across windows", meta.Hop, meta.Width)
	}
	cfg.Window, cfg.Hop, cfg.Lateness = meta.Width, meta.Hop, meta.Lateness
	cfg.Anchor = st.Anchor()
	cfg.ArchivePath, cfg.StoreDir, cfg.Resume = "", "", false
	s, err := Open(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Replay{Session: s, st: st, Recovery: recovery}, nil
}

// openTrace opens a recorded trace path strictly or leniently, returning
// a recovery report only when something had to be reconciled.
func openTrace(path string, salvage bool) (*archive.Store, *archive.StoreRecovery, error) {
	if !salvage {
		st, err := archive.OpenPath(path)
		return st, nil, err
	}
	st, rec, err := archive.OpenPathRecovering(path)
	if err != nil {
		return nil, nil, err
	}
	if rec.Clean {
		rec = nil
	}
	return st, rec, nil
}

// Store exposes the opened trace view, for callers that want to inspect
// segments or run manifest-pruned queries beside the replay.
func (r *Replay) Store() *archive.Store { return r.st }

// NumSegments returns how many store segments the replay covers (one for
// a single-file archive).
func (r *Replay) NumSegments() int { return r.st.NumSegments() }

// NumWindows returns the number of archived windows the replay covers.
func (r *Replay) NumWindows() int { return r.st.NumWindows() }

// Run pushes every archived window's frame through the session via the
// bulk columnar path, then closes it. emit receives each batch of released
// reports in window order (possibly empty), including the trailing reports
// Close flushes — the same interleaving the recording session printed, so
// the emitted stream compares line for line.
func (r *Replay) Run(emit func([]*llmprism.Report)) error {
	return r.RunSelected(archive.Query{}, emit)
}

// RunSelected is Run restricted to the query's slice of the trace:
// segments the store manifest cannot prune, and within them only windows
// overlapping the query's time bounds — re-analysis of a time/pair/switch
// slice under this session's (possibly different) configuration. The zero
// query selects everything.
func (r *Replay) RunSelected(q archive.Query, emit func([]*llmprism.Report)) error {
	if err := r.st.ReplaySelected(q, func(_ archive.Segment, fr *flow.Frame) error {
		reports, err := r.PushFrame(fr)
		emit(reports)
		return err
	}); err != nil {
		return err
	}
	reports, err := r.Close()
	emit(reports)
	return err
}

// Scan is a session-free query over a recorded trace: it opens path like
// OpenReplay, prunes segments through the store manifest, and visits every
// record matching q. Windows come in event-time order; the rows of one
// window come in its frame's canonical (pair, start, id) order, so start
// times are not monotone inside a window. fn receives each matching row's
// window bounds and its frame row. The store's recovery note (nil
// when clean) is returned alongside any error.
func Scan(path string, salvage bool, q archive.Query, fn func(start, end time.Time, f *flow.Frame, i int) error) (*archive.StoreRecovery, error) {
	st, recovery, err := openTrace(path, salvage)
	if err != nil {
		return nil, err
	}
	return recovery, st.Scan(q, func(s archive.Segment, f *flow.Frame, i int) error {
		return fn(s.Start, s.End, f, i)
	})
}
