package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/stats"
)

// queryRange is the event-time width of a bounded scan query.
const queryRange = time.Minute

// storeRef pairs one cluster's recorded store with the generator records
// it must hold — the brute-force oracle every scan is counted against,
// independent of the archive layer.
type storeRef struct {
	cluster string
	dir     string
	tr      *trace
	// from is the start of the oldest retained window (zero when nothing
	// was pruned): records before it are gone from the store by policy.
	from time.Time
	// replayText is the store replayed through a fresh session (tumbling
	// stores only).
	replayText string
}

// expect counts the rows a query must visit, from the generator's records
// alone.
func (s *storeRef) expect(q archive.Query, perRecord int) int {
	from := q.From
	if from.Before(s.from) {
		from = s.from
	}
	kept := s.tr.kept
	lo := sort.Search(len(kept), func(i int) bool { return !kept[i].Start.Before(from) })
	hi := len(kept)
	if !q.To.IsZero() {
		hi = sort.Search(len(kept), func(i int) bool { return !kept[i].Start.Before(q.To) })
	}
	if hi < lo {
		return 0
	}
	if q.Pair == nil {
		return (hi - lo) * perRecord
	}
	n := 0
	for _, r := range kept[lo:hi] {
		if r.Pair() == *q.Pair {
			n++
		}
	}
	return n * perRecord
}

func countRows(dir string, q archive.Query) (int, error) {
	n := 0
	_, err := session.Scan(dir, false, q, func(_, _ time.Time, _ *flow.Frame, _ int) error {
		n++
		return nil
	})
	return n, err
}

// readback re-reads what the stream phase wrote, through the functions
// `llmprism replay` and `llmprism scan` call: replay passes (tumbling
// stores only — overlapping captures are refused by design), full scans,
// and seeded time- and pair-bounded queries, each row count checked
// against the brute-force oracle.
func (r *run) readback(sr *streamResult) error {
	m := r.res.Metrics
	geo := r.w.flags.geo
	perRecord := geo.windowsPerRecord()
	var stores []*storeRef
	for _, st := range sr.timings {
		s := &storeRef{cluster: st.plan.cluster, tr: st.plan.tr, dir: filepath.Join(r.storeDir(), st.plan.cluster+".llps")}
		if r.w.flags.retainSegments > 0 {
			_, _, segs, err := archive.ReadStoreManifest(s.dir)
			if err != nil {
				return fmt.Errorf("readback %s: %w", s.cluster, err)
			}
			if len(segs) == 0 {
				return fmt.Errorf("readback %s: store holds no segments", s.cluster)
			}
			s.from = segs[0].MinStart
		}
		stores = append(stores, s)
	}
	sr.stores = stores

	// Replay: analysis without wire or persistence.
	m["session.replay_records_per_s"] = 0
	if geo.hop == 0 {
		var rows int64
		t0 := time.Now()
		for pass := 0; pass < r.w.replayPasses; pass++ {
			for _, s := range stores {
				text, err := replayStore(r.w.flags.sessionConfig(s.tr.topo), s.dir)
				if err != nil {
					return fmt.Errorf("replay %s: %w", s.cluster, err)
				}
				s.replayText = text
				rows += int64(s.expect(archive.Query{}, 1))
			}
		}
		m["session.replay_records_per_s"] = float64(rows) / time.Since(t0).Seconds()
	}

	// Full scans: archive and codec with no analysis at all. The rate is the
	// median over passes, so one pass hit by a noisy neighbour does not set
	// the number.
	rates := make([]float64, 0, r.w.scanPasses)
	for pass := 0; pass < r.w.scanPasses; pass++ {
		var rows int64
		t0 := time.Now()
		for _, s := range stores {
			n, err := countRows(s.dir, archive.Query{})
			if err != nil {
				return fmt.Errorf("scan %s: %w", s.cluster, err)
			}
			rows += int64(n)
			if pass == 0 {
				want := s.expect(archive.Query{}, perRecord)
				r.res.check(n == want, "scan %s: full scan visited %d rows, generator holds %d", s.cluster, n, want)
				r.res.Counts["rows"] += int64(n)
			}
		}
		rates = append(rates, float64(rows)/time.Since(t0).Seconds())
	}
	m["scan_rows_per_s"] = stats.Median(rates)

	// Bounded queries: a minute of event time, every other one narrowed to
	// one endpoint pair.
	rng := rand.New(rand.NewSource(r.seed ^ 0x2545f491))
	horizon := r.w.horizon(r.seconds)
	lat := make([]float64, 0, r.w.queries)
	for i := 0; i < r.w.queries; i++ {
		s := stores[i%len(stores)]
		// Ranges are drawn from what the store still retains.
		first := s.tr.epoch
		if s.from.After(first) {
			first = s.from
		}
		span := s.tr.epoch.Add(horizon - queryRange).Sub(first)
		if span < time.Second {
			span = time.Second
		}
		q := archive.Query{From: first.Add(time.Duration(rng.Int63n(int64(span))))}
		q.To = q.From.Add(queryRange)
		if i%2 == 1 {
			p := s.tr.kept[rng.Intn(len(s.tr.kept))].Pair()
			q.Pair = &p
		}
		t0 := time.Now()
		n, err := countRows(s.dir, q)
		if err != nil {
			return fmt.Errorf("query %s: %w", s.cluster, err)
		}
		lat = append(lat, float64(time.Since(t0))/1e6)
		want := s.expect(q, perRecord)
		r.res.check(n == want, "query %s [%s, +1m) pair %v: visited %d rows, generator holds %d",
			s.cluster, q.From.Format(time.TimeOnly), q.Pair, n, want)
	}
	m["scan_ms_p50"] = stats.Median(lat)
	return nil
}

// replayStore replays a recorded store through a fresh session and returns
// the report text.
func replayStore(cfg session.Config, dir string) (string, error) {
	rp, err := session.OpenReplay(context.Background(), cfg, dir, false)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := rp.Run(func(reports []*llmprism.Report) { session.PrintReports(&sb, reports) }); err != nil {
		rp.Abort()
		return "", err
	}
	return sb.String(), nil
}
