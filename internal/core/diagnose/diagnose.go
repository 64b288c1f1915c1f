// Package diagnose implements LLMPrism's multi-dimensional performance
// degradation detection (§IV-D of the paper) on top of reconstructed
// timelines:
//
//   - cross-step: a rank's step durations should be stable; longer steps
//     indicate compute or communication slowdown (stragglers, throttling).
//   - cross-group: DP groups of the same job should spend similar time in
//     their collectives each step; a slow group points at its network path.
//   - switch-level: per-switch average DP flow bandwidth (degraded or
//     congested switches, the paper's Fig. 5).
//
// All detectors use the k-sigma rule at k = 3, a constant. (The paper's σ
// formula is a typo — as printed it is identically zero — so the standard
// deviation is used.)
package diagnose

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/stats"
)

// AlertKind classifies an alert.
type AlertKind uint8

// Alert kinds.
const (
	AlertCrossStep AlertKind = iota + 1
	AlertCrossGroup
	// AlertSwitchFlowCount is never produced. Its value and name stay
	// reserved: checkpoints store alert kinds as one byte.
	AlertSwitchFlowCount
	AlertSwitchBandwidth
)

func (k AlertKind) String() string {
	switch k {
	case AlertCrossStep:
		return "cross-step"
	case AlertCrossGroup:
		return "cross-group"
	case AlertSwitchFlowCount:
		return "switch-flow-count"
	case AlertSwitchBandwidth:
		return "switch-bandwidth"
	default:
		return fmt.Sprintf("AlertKind(%d)", uint8(k))
	}
}

// Alert is one detected anomaly.
type Alert struct {
	Kind AlertKind
	// Rank is set for cross-step alerts.
	Rank flow.Addr
	// Group indexes the job's DP group list for cross-group alerts. The
	// index is window-relative (groups are recomputed per window), so
	// cross-window continuity keys on GroupAnchor instead.
	Group int
	// GroupAnchor is the smallest member endpoint of the DP group for
	// cross-group alerts — a stable cross-window identity for the
	// positional Group index.
	GroupAnchor flow.Addr
	// Step is the window-relative step index (cross-step, cross-group).
	Step int
	// Switch is set for switch-level alerts.
	Switch flow.SwitchID
	// Time locates the anomaly.
	Time time.Time
	// Value is the anomalous measurement; Baseline the healthy reference
	// (seconds for durations, Gb/s for bandwidth).
	Value, Baseline float64
	// Detail is a human-readable explanation.
	Detail string
}

// minSamples is the minimum population for a k-sigma decision.
const minSamples = 6

// sigmaK is the k of every detector's k-sigma rule.
const sigmaK = 3

// Config carries the detectors' inputs that are not constants: the switch
// bucket, the topology's tier and rail classifiers, and the loss-tolerance
// hardening.
type Config struct {
	// Bucket is the time-bucket width for switch-level series.
	// Default 1 minute.
	Bucket time.Duration
	// SwitchTier classifies switches into comparison tiers for the
	// switch-bandwidth detector: the k-sigma peer population is formed
	// within each tier separately, because leaf and spine switches carry
	// structurally different per-flow bandwidth (a leaf sees every local
	// flow once, a spine only the ECMP share that hashed onto it), and
	// pooling them makes the low tier look degraded against the high one.
	// Nil (the default) compares all switches in a single population.
	SwitchTier func(flow.SwitchID) int
	// GroupRail classifies DP-group anchor endpoints into comparison
	// rails for the cross-group detector, the group-side mirror of
	// SwitchTier: the per-step k-sigma peer population is formed within
	// each rail class separately, because rails carry structurally
	// different collective-segment durations (the trailing rail absorbs
	// the collective's serialization tail every step), and pooling them
	// makes the slow rail's groups fire in every window of a fault-free
	// trace. Rails below minSamples groups are skipped, not pooled — a
	// two-group rail has no peer baseline to judge against. Nil (the
	// default) compares all of a job's groups in a single population.
	GroupRail func(flow.Addr) int
	// GroupMedian aggregates a DP group's per-step duration as the median
	// of its members' instead of the mean. Record loss corrupts individual
	// ranks' step segmentation — a lost boundary record merges two steps,
	// doubling one member's apparent duration — and the mean inherits the
	// artifact; the median discards it, while a genuinely slow group
	// (every member delayed by the same fault) moves median and mean
	// alike.
	GroupMedian bool
	// MinPersist is the minimum number of anomalous steps a rank
	// (cross-step) or group (cross-group) must show within one window
	// before its alerts surface. Collection noise corrupts isolated
	// steps; real faults hold for the whole window. Default 1 (every
	// anomaly alerts).
	MinPersist int
}

func (c Config) withDefaults() Config {
	if c.Bucket <= 0 {
		c.Bucket = time.Minute
	}
	if c.MinPersist <= 0 {
		c.MinPersist = 1
	}
	return c
}

// kSigmaOutlierLOO reports whether xs[i] is a k-sigma outlier against the
// leave-one-out mean and deviation of the remaining samples, on the given
// side (+1 upper, -1 lower). Returns the baseline mean.
func kSigmaOutlierLOO(xs []float64, i int, k float64, side int) (bool, float64) {
	rest := make([]float64, 0, len(xs)-1)
	for j, x := range xs {
		if j != i {
			rest = append(rest, x)
		}
	}
	mean := stats.Mean(rest)
	sd := stats.StdDev(rest)
	// The 1%-of-mean floor applies always, not only to zero-variance
	// populations — the same discipline CrossStep uses. A near-constant
	// baseline with tiny nonzero variance (sampling noise) must not turn
	// sub-percent deviations into k-sigma outliers.
	if floor := 0.01 * math.Abs(mean); sd < floor {
		sd = floor
	}
	if sd < 1e-12 {
		sd = 1e-12
	}
	if side >= 0 {
		return xs[i] > mean+k*sd, mean
	}
	return xs[i] < mean-k*sd, mean
}

// fragmentRatio is the share of the job's step length below which a rank's
// median step marks its steps as fragments. The ranks of one job step in
// lockstep, so a rank whose median step is under half its peers' was split
// by reconstruction, not sped up.
const fragmentRatio = 0.5

// CrossStep flags steps whose duration is a k-sigma upper outlier against
// the rank's trailing history, mirroring the online deployment: each step
// is judged against the steps seen before it, and anomalous steps are kept
// out of the baseline so a long-running incident keeps alerting instead of
// normalizing itself. The window-truncated first step is skipped.
//
// A rank whose steps were split into fragments is not judged: its history
// is mostly fragments, against which every whole step reads as an outlier.
// Its median step falls below fragmentRatio of the job's step length: the
// median, over the ranks with enough steps to judge, of each rank's median
// step.
func CrossStep(timelines map[flow.Addr]*timeline.Timeline, cfg Config) []Alert {
	cfg = cfg.withDefaults()
	var alerts []Alert
	ranks := sortedRanks(timelines)
	judged := ranks[:0] // filtered in place: judged never overtakes ranks
	var medians, scratch []float64
	for _, rank := range ranks {
		tl := timelines[rank]
		if len(tl.Steps) < minSamples+1 {
			continue
		}
		scratch = scratch[:0]
		for _, s := range tl.Steps[1:] {
			scratch = append(scratch, s.Duration().Seconds())
		}
		judged = append(judged, rank)
		medians = append(medians, sortedMedian(scratch))
	}
	jobStep := sortedMedian(append(scratch[:0], medians...))
	for i, rank := range judged {
		if medians[i] < fragmentRatio*jobStep {
			continue
		}
		tl := timelines[rank]
		var w stats.Welford
		var rankAlerts []Alert
		for _, s := range tl.Steps[1:] {
			dur := s.Duration().Seconds()
			if w.N() >= minSamples {
				mean := w.Mean()
				sd := w.StdDev()
				if floor := 0.01 * mean; sd < floor {
					sd = floor
				}
				if dur > mean+sigmaK*sd {
					rankAlerts = append(rankAlerts, Alert{
						Kind:     AlertCrossStep,
						Rank:     rank,
						Step:     s.Index,
						Time:     s.Start,
						Value:    dur,
						Baseline: mean,
						Detail: fmt.Sprintf("rank %v step %d took %.3fs vs baseline %.3fs",
							rank, s.Index, dur, mean),
					})
					continue // keep the anomaly out of the baseline
				}
			}
			w.Add(dur)
		}
		// A rank below the persistence bar shows isolated spikes — the
		// step-segmentation artifacts record loss leaves — not slowness.
		if len(rankAlerts) >= cfg.MinPersist {
			alerts = append(alerts, rankAlerts...)
		}
	}
	return alerts
}

// CrossGroup compares the DP segment durations of a job's DP groups step by
// step and flags groups that are k-sigma slower than their peers. With
// Config.GroupRail set, the per-step peer population is stratified by the
// rail class of each group's anchor endpoint, so structurally slow rails
// are never judged against fast ones.
func CrossGroup(timelines map[flow.Addr]*timeline.Timeline, groups [][]flow.Addr, cfg Config) []Alert {
	cfg = cfg.withDefaults()
	if len(groups) < minSamples {
		return nil
	}
	railOf := func(anchor flow.Addr) int { return 0 }
	if cfg.GroupRail != nil {
		railOf = cfg.GroupRail
	}
	// groupDur[g][step] = mean DP duration of group g's members at step.
	maxSteps := 0
	for _, tl := range timelines {
		if n := len(tl.Steps); n > maxSteps {
			maxSteps = n
		}
	}
	// Per-step scratch, partitioned by rail class. Groups are visited in
	// index order, so each rail's population keeps a fixed order too.
	type railPop struct {
		durs  []float64
		times []time.Time
		idx   []int
	}
	var alerts []Alert
	for step := 1; step < maxSteps; step++ { // skip truncated step 0
		byRail := make(map[int]*railPop)
		rails := make([]int, 0, 2)
		for g, members := range groups {
			var durs []float64
			var at time.Time
			for _, rank := range members {
				tl, ok := timelines[rank]
				if !ok || step >= len(tl.Steps) {
					continue
				}
				durs = append(durs, tl.Steps[step].DPDuration().Seconds())
				at = tl.Steps[step].DPStart
			}
			if len(durs) == 0 {
				continue
			}
			var anchor flow.Addr
			if len(members) > 0 {
				anchor = members[0] // members are sorted ascending
			}
			rail := railOf(anchor)
			pop, ok := byRail[rail]
			if !ok {
				pop = &railPop{}
				byRail[rail] = pop
				rails = append(rails, rail)
			}
			pop.durs = append(pop.durs, groupDuration(durs, cfg.GroupMedian))
			pop.times = append(pop.times, at)
			pop.idx = append(pop.idx, g)
		}
		sort.Ints(rails)
		for _, rail := range rails {
			pop := byRail[rail]
			if len(pop.durs) < minSamples {
				continue
			}
			for i := range pop.durs {
				if bad, base := kSigmaOutlierLOO(pop.durs, i, sigmaK, +1); bad {
					g := pop.idx[i]
					var anchor flow.Addr
					if members := groups[g]; len(members) > 0 {
						anchor = members[0]
					}
					alerts = append(alerts, Alert{
						Kind:        AlertCrossGroup,
						Group:       g,
						GroupAnchor: anchor,
						Step:        step,
						Time:        pop.times[i],
						Value:       pop.durs[i],
						Baseline:    base,
						Detail: fmt.Sprintf("DP group %d step %d collective took %.3fs vs peer baseline %.3fs",
							g, step, pop.durs[i], base),
					})
				}
			}
		}
	}
	if cfg.MinPersist > 1 {
		// Drop groups anomalous in fewer than MinPersist steps of the
		// window — isolated spikes, not sustained slowness. The surviving
		// alerts keep their original (step, rail, group) order.
		perGroup := make(map[int]int)
		for _, a := range alerts {
			perGroup[a.Group]++
		}
		kept := alerts[:0]
		for _, a := range alerts {
			if perGroup[a.Group] >= cfg.MinPersist {
				kept = append(kept, a)
			}
		}
		if len(kept) == 0 {
			return nil
		}
		alerts = kept
	}
	return alerts
}

// sortedMedian returns the median of xs (0 when empty), sorting xs in
// place.
func sortedMedian(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// groupDuration folds one group's member DP durations into the group's
// per-step duration: the mean, or with median set the member median (robust
// to loss-corrupted individual ranks). Ties split like sort order; the
// input is scratch and may be reordered.
func groupDuration(durs []float64, median bool) float64 {
	if !median {
		var sum float64
		for _, d := range durs {
			sum += d
		}
		return sum / float64(len(durs))
	}
	return sortedMedian(durs)
}

// SwitchPoint is one time bucket of one switch's DP traffic.
type SwitchPoint struct {
	Bucket time.Time
	// BWFlows is the number of DP flow records traversing the switch in
	// the bucket with a measurable bandwidth (positive duration and byte
	// count). Collectors export degenerate zero-duration/zero-byte records
	// (single-packet or clipped flows) whose Gbps reads 0; counting them
	// into the mean would fabricate bandwidth degradation on healthy
	// switches.
	BWFlows int
	// MeanGbps is the average per-flow bandwidth over the BWFlows
	// measurable records (0 when there are none).
	MeanGbps float64
}

// SeriesAccum incrementally aggregates DP flows per switch into time-bucket
// cells. It lets each analysis shard (one job, one goroutine) build a
// private partial aggregation that is later merged into the platform-wide
// series: per-cell counters and bandwidth sums combine exactly, and merging
// shards in a fixed order fixes the floating-point summation order, so the
// merged series is identical for any worker count.
//
// A SeriesAccum is not safe for concurrent use; build one per goroutine and
// Merge them afterwards.
type SeriesAccum struct {
	cfg       Config
	perSwitch map[flow.SwitchID]map[time.Time]*seriesCell
}

type seriesCell struct {
	bw  int
	sum float64
}

// NewSeriesAccum returns an empty accumulator using cfg's bucket width.
func NewSeriesAccum(cfg Config) *SeriesAccum {
	return &SeriesAccum{
		cfg:       cfg.withDefaults(),
		perSwitch: make(map[flow.SwitchID]map[time.Time]*seriesCell),
	}
}

// AddView folds the DP-classified rows of one job's frame view into the
// accumulator. The DP test runs once per pair (over the view's pair list)
// instead of once per record, and rows stream in (start, id) order, which
// fixes the per-cell float summation order. It is the only way records
// enter an accumulator; oracle_test.go keeps the record-slice Add and
// SwitchSeries it is tested against.
func (a *SeriesAccum) AddView(v flow.View, types map[flow.Pair]parallel.Type) {
	f := v.Frame()
	dp := make([]bool, v.NumPairs())
	for i := range dp {
		dp[i] = types[v.PairAt(i)] == parallel.TypeDP
	}
	rows := v.Rows()
	rowPairs := v.RowPairs()
	for k, ri := range rows {
		if !dp[rowPairs[k]] {
			continue
		}
		r := int(ri)
		bucket := f.Start(r).Truncate(a.cfg.Bucket)
		gbps := f.Gbps(r)
		bw := 0
		if f.Duration(r) > 0 && f.Bytes(r) > 0 {
			bw = 1
		}
		for _, sw := range f.Switches(r) {
			a.cell(sw, bucket).add(bw, gbps)
		}
	}
}

// Merge folds b's cells into a. b may be nil or empty; it is not modified.
// Each (switch, bucket) cell combines independently, so the map iteration
// order inside a single Merge cannot affect the result — only the order of
// Merge calls does, and callers keep that fixed (job index order).
func (a *SeriesAccum) Merge(b *SeriesAccum) {
	if b == nil {
		return
	}
	for sw, cells := range b.perSwitch {
		for bucket, c := range cells {
			a.cell(sw, bucket).add(c.bw, c.sum)
		}
	}
}

func (a *SeriesAccum) cell(sw flow.SwitchID, bucket time.Time) *seriesCell {
	m := a.perSwitch[sw]
	if m == nil {
		m = make(map[time.Time]*seriesCell)
		a.perSwitch[sw] = m
	}
	c := m[bucket]
	if c == nil {
		c = &seriesCell{}
		m[bucket] = c
	}
	return c
}

func (c *seriesCell) add(bw int, sum float64) {
	c.bw += bw
	c.sum += sum
}

// Series materializes the accumulated per-switch series, each sorted by
// bucket.
func (a *SeriesAccum) Series() map[flow.SwitchID][]SwitchPoint {
	out := make(map[flow.SwitchID][]SwitchPoint, len(a.perSwitch))
	for sw, buckets := range a.perSwitch {
		points := make([]SwitchPoint, 0, len(buckets))
		for b, c := range buckets {
			mean := 0.0
			if c.bw > 0 {
				mean = c.sum / float64(c.bw)
			}
			points = append(points, SwitchPoint{
				Bucket:   b,
				BWFlows:  c.bw,
				MeanGbps: mean,
			})
		}
		sort.Slice(points, func(i, j int) bool { return points[i].Bucket.Before(points[j].Bucket) })
		out[sw] = points
	}
	return out
}

// SwitchDiagnose inspects switch series bucket by bucket for bandwidth
// degradation (k-sigma lower outlier across switches). The comparison
// covers only cells with measurable bandwidth (BWFlows > 0) and, when Config.SwitchTier is set, runs within
// each tier separately so leaves are never judged against spines.
func SwitchDiagnose(series map[flow.SwitchID][]SwitchPoint, cfg Config) []Alert {
	cfg = cfg.withDefaults()
	// Re-index by bucket.
	type cell struct {
		sw    flow.SwitchID
		point SwitchPoint
	}
	byBucket := make(map[time.Time][]cell)
	for sw, points := range series {
		for _, p := range points {
			byBucket[p.Bucket] = append(byBucket[p.Bucket], cell{sw, p})
		}
	}
	buckets := make([]time.Time, 0, len(byBucket))
	for b := range byBucket {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Before(buckets[j]) })

	var alerts []Alert
	for _, b := range buckets {
		cells := byBucket[b]
		sort.Slice(cells, func(i, j int) bool { return cells[i].sw < cells[j].sw })
		// Partition the bucket's measurable cells into comparison tiers
		// (one tier when no classifier is set), keeping the per-tier cell
		// order sorted by switch id.
		tierOf := func(sw flow.SwitchID) int { return 0 }
		if cfg.SwitchTier != nil {
			tierOf = cfg.SwitchTier
		}
		byTier := make(map[int][]cell)
		tiers := make([]int, 0, 2)
		for _, c := range cells {
			if c.point.BWFlows == 0 {
				continue // no measurable bandwidth to compare
			}
			tier := tierOf(c.sw)
			if _, ok := byTier[tier]; !ok {
				tiers = append(tiers, tier)
			}
			byTier[tier] = append(byTier[tier], c)
		}
		sort.Ints(tiers)
		for _, tier := range tiers {
			peers := byTier[tier]
			if len(peers) < minSamples {
				continue
			}
			bws := make([]float64, len(peers))
			for i, c := range peers {
				bws[i] = c.point.MeanGbps
			}
			for i, c := range peers {
				if bad, base := kSigmaOutlierLOO(bws, i, sigmaK, -1); bad {
					alerts = append(alerts, Alert{
						Kind:     AlertSwitchBandwidth,
						Switch:   c.sw,
						Time:     b,
						Value:    bws[i],
						Baseline: base,
						Detail: fmt.Sprintf("switch %v DP bandwidth %.1f Gb/s vs peer baseline %.1f Gb/s",
							c.sw, bws[i], base),
					})
				}
			}
		}
	}
	return alerts
}

func sortedRanks(timelines map[flow.Addr]*timeline.Timeline) []flow.Addr {
	ranks := make([]flow.Addr, 0, len(timelines))
	for r := range timelines {
		ranks = append(ranks, r)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	return ranks
}
