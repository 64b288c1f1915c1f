package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"github.com/llmprism/llmprism/internal/session"
)

// runReference runs an independent offline session over the leading frames
// of a trace in event-time order and returns its report text, one block per
// window. Reports are causal — a window's text depends
// only on the frames up to the one that closes it — so the daemon's report
// stream must start with exactly these windows, however its arrival order
// was permuted.
func runReference(cfg session.Config, tr *trace, geo geometry, frac float64) ([]string, error) {
	// At least enough frames for the watermark to close a window or two.
	n := max(int(math.Ceil(float64(len(tr.ref))*frac)), int((geo.width+2*geo.stride()+geo.lateness)/frameInterval))
	n = min(n, len(tr.ref))
	s, err := session.Open(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	newest := int64(math.MinInt64)
	for _, f := range tr.ref[:n] {
		reports, err := s.PushFrame(f)
		if err != nil {
			s.Abort()
			return nil, err
		}
		session.PrintReports(&sb, reports)
		if f.Len() > 0 {
			newest = max(newest, f.MaxStartNanos())
		}
	}
	// Close collects the windows still being analyzed, and also flushes the
	// ones the prefix cut short; only the windows the watermark closed are
	// complete, and they come first.
	reports, err := s.Close()
	if err != nil {
		return nil, err
	}
	session.PrintReports(&sb, reports)
	closed := geo.lastClosed(tr.anchor, newest) - geo.firstWindow() + 1
	blocks := splitWindows(sb.String())
	if closed < 0 || int(closed) > len(blocks) {
		return nil, fmt.Errorf("reference released %d windows, watermark arithmetic says %d closed", len(blocks), closed)
	}
	return blocks[:closed], nil
}

// verify checks what the daemon reported against two oracles: an
// independent in-order offline session over each trace's leading frames,
// and — for tumbling stores kept whole — a replay of the store the daemon
// recorded. One window report is one operation.
func (r *run) verify(sr *streamResult) error {
	refs := map[*trace][]string{}
	for _, tr := range r.traces {
		blocks, err := runReference(r.w.flags.sessionConfig(tr.topo), tr, r.w.flags.geo, r.w.verifyFrac)
		if err != nil {
			return fmt.Errorf("reference %s: %w", tr.spec.name, err)
		}
		refs[tr] = blocks
	}
	var hits, active int
	for i, st := range sr.timings {
		c := st.plan.cluster
		got := splitWindows(sr.reports[c])
		want := refs[st.plan.tr]
		if len(want) == 0 {
			r.res.fail("cluster %s: the reference released no window to compare", c)
		}
		badWindow := func(s int) {
			if lat := sr.latency[c]; s < len(lat) {
				lat[s] = math.Inf(1)
			}
		}
		// The daemon's text ends with the last window it released before
		// shutdown; the few it flushes while shutting down are only in its
		// store. Where that store can be replayed whole, the replay stands
		// in for them once it is shown to agree on every released window.
		full := got
		if store := sr.stores[i]; store.replayText != "" && r.w.flags.retainSegments == 0 {
			replay := splitWindows(store.replayText)
			r.res.check(len(replay) == sr.exit.windows[c], "cluster %s: replay shows %d windows, daemon released %d", c, len(replay), sr.exit.windows[c])
			for s, block := range got {
				ok := s < len(replay) && replay[s] == block
				r.res.check(ok, "cluster %s window %d: replay of the recorded store differs from the daemon's report", c, s)
				if !ok {
					badWindow(s)
				}
			}
			if len(replay) > len(got) {
				full = replay
			}
		}
		r.res.check(len(got) > 0, "cluster %s: the daemon released no window before shutdown", c)
		for s, block := range want[:min(len(want), len(full))] {
			ok := full[s] == block
			r.res.check(ok, "cluster %s window %d: daemon report differs from the in-order offline session", c, s)
			if !ok {
				badWindow(s)
			}
		}
		h, a := top1Hits(st.plan.tr, r.w.flags.geo, full)
		hits, active = hits+h, active+a
	}
	// Localization accuracy against the simulator's ground truth. It is
	// deterministic for a seed and gated as a floor, not a bound: the
	// injected degradation must be the first fused suspect in most of the
	// windows it is active in.
	r.res.Metrics["localize.top1_hit_ratio"] = 0
	if active > 0 {
		ratio := float64(hits) / float64(active)
		r.res.Metrics["localize.top1_hit_ratio"] = ratio
		r.res.Counts["top1_hits"] = int64(hits)
		r.res.check(ratio >= top1Floor, "injected fault was the first fused suspect in %d of %d fault-active windows (floor %.2f)", hits, active, top1Floor)
	}
	return nil
}

// top1Floor is the share of fault-active windows that must name the
// injected component first.
const top1Floor = 0.5

// top1Hits counts, over the windows the injected fault is active in, the
// ones whose first fused suspect is the injected component.
func top1Hits(tr *trace, geo geometry, blocks []string) (hits, active int) {
	comp, ok := tr.faultComponent()
	if !ok {
		return 0, 0
	}
	f := tr.faults.Faults[0]
	from, until := tr.epoch.Add(f.At).UnixNano(), tr.epoch.Add(f.Until).UnixNano()
	for s, block := range blocks {
		start := tr.anchor + (geo.firstWindow()+int64(s))*int64(geo.stride())
		if start+int64(geo.width) <= from || start >= until {
			continue
		}
		active++
		if strings.Contains(block, "\n  fused #1 "+comp+":") {
			hits++
		}
	}
	return hits, active
}
