// Package viz renders the LLMPrism analysis results as plain-text views:
// the job-recognition cluster grid (the paper's Fig. 3), per-rank timeline
// swimlanes (Fig. 4), and per-switch bandwidth series (Fig. 5). The
// renderings target terminals and monospace report files.
package viz

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/core/diagnose"
	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// clusterGlyphs label up to 62 clusters; further clusters reuse '#'.
const clusterGlyphs = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"

func glyph(i int) byte {
	if i < len(clusterGlyphs) {
		return clusterGlyphs[i]
	}
	return '#'
}

// ClusterGrid renders one row per server and one column per GPU; each cell
// shows the cluster owning that GPU ('.' = no observed traffic). Passing
// the phase-1 cross-machine clusters gives the paper's Fig. 3 middle panel;
// passing job-level clusters gives the right panel.
func ClusterGrid(topo *topology.Topology, clusters [][]flow.Addr) string {
	owner := make(map[flow.Addr]int)
	for i, c := range clusters {
		for _, a := range c {
			owner[a] = i + 1
		}
	}
	var sb strings.Builder
	gpn := topo.Spec().GPUsPerNode
	fmt.Fprintf(&sb, "%-8s", "node")
	for g := 0; g < gpn; g++ {
		fmt.Fprintf(&sb, "%d", g%10)
	}
	sb.WriteByte('\n')
	for n := 0; n < topo.Nodes(); n++ {
		fmt.Fprintf(&sb, "%-8d", n)
		for g := 0; g < gpn; g++ {
			if i := owner[topo.AddrOf(topology.NodeID(n), g)]; i > 0 {
				sb.WriteByte(glyph(i - 1))
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// JobClusterGrid is ClusterGrid for recognized job clusters.
func JobClusterGrid(topo *topology.Topology, jobs []jobrec.Cluster) string {
	clusters := make([][]flow.Addr, len(jobs))
	for i, j := range jobs {
		clusters[i] = j.Endpoints
	}
	return ClusterGrid(topo, clusters)
}

// TimelineSwimlanes renders one lane per rank over [from, to): 'F'/'B'
// would require op knowledge the black-box view lacks, so communication is
// drawn as 'p' (PP) and 'D' (DP), idle/compute as '·', and step boundaries
// as '|'. Width is the number of character cells for the time axis. Each
// rank with a timeline in tls gets a lane painted from the records it sends
// or receives, DP when types says so. The records may come in any order:
// DP paint always covers PP, PP never covers DP, and step ends go on last.
func TimelineSwimlanes(records []flow.Record, types map[flow.Pair]parallel.Type, tls map[flow.Addr]*timeline.Timeline, ranks []flow.Addr, from, to time.Time, width int) string {
	if width <= 0 {
		width = 100
	}
	span := to.Sub(from)
	if span <= 0 {
		return ""
	}
	// A span shorter than width nanoseconds still gets 1 ns cells.
	cell := max(span/time.Duration(width), time.Nanosecond)
	var sb strings.Builder
	fmt.Fprintf(&sb, "window %s .. %s  ('p'=PP 'D'=DP '·'=compute/idle '|'=step end)\n",
		from.Format("15:04:05.000"), to.Format("15:04:05.000"))
	for _, rank := range ranks {
		tl, ok := tls[rank]
		if !ok {
			continue
		}
		lane := []byte(strings.Repeat(".", width))
		paint := func(start, end time.Time, ch byte) {
			if end.Before(from) || !start.Before(to) {
				return
			}
			lo := int(start.Sub(from) / cell)
			hi := int(end.Sub(from) / cell)
			if lo < 0 {
				lo = 0
			}
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				// Do not let PP overwrite DP paint.
				if ch == 'p' && lane[i] == 'D' {
					continue
				}
				lane[i] = ch
			}
		}
		for _, r := range records {
			if r.Src != rank && r.Dst != rank {
				continue
			}
			ch := byte('p')
			if types[r.Pair()] == parallel.TypeDP {
				ch = 'D'
			}
			paint(r.Start, r.End(), ch)
		}
		for _, s := range tl.Steps {
			if !s.End.Before(from) && s.End.Before(to) {
				if i := int(s.End.Sub(from) / cell); i >= 0 && i < width {
					lane[i] = '|'
				}
			}
		}
		out := strings.ReplaceAll(string(lane), ".", "·")
		fmt.Fprintf(&sb, "%-14s %s\n", rank.String(), out)
	}
	return sb.String()
}

// BandwidthSeries renders per-switch DP bandwidth over time as rows of
// bucket values (the paper's Fig. 5 as a table), with a trailing sparkline.
func BandwidthSeries(series map[flow.SwitchID][]diagnose.SwitchPoint, name func(flow.SwitchID) string) string {
	switches := make([]flow.SwitchID, 0, len(series))
	for sw := range series {
		switches = append(switches, sw)
	}
	sort.Slice(switches, func(i, j int) bool { return switches[i] < switches[j] })
	if len(switches) == 0 {
		return "no DP traffic observed\n"
	}

	// Collect the union of buckets for the header.
	bucketSet := make(map[time.Time]struct{})
	for _, pts := range series {
		for _, p := range pts {
			bucketSet[p.Bucket] = struct{}{}
		}
	}
	buckets := make([]time.Time, 0, len(bucketSet))
	for b := range bucketSet {
		buckets = append(buckets, b)
	}
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].Before(buckets[j]) })

	var maxBW float64
	for _, pts := range series {
		for _, p := range pts {
			if p.MeanGbps > maxBW {
				maxBW = p.MeanGbps
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s", "switch")
	for _, b := range buckets {
		fmt.Fprintf(&sb, "%8s", b.Format("15:04:05"))
	}
	sb.WriteString("  trend\n")
	spark := []rune("▁▂▃▄▅▆▇█")
	for _, sw := range switches {
		label := sw.String()
		if name != nil {
			label = name(sw)
		}
		fmt.Fprintf(&sb, "%-12s", label)
		byBucket := make(map[time.Time]diagnose.SwitchPoint, len(series[sw]))
		for _, p := range series[sw] {
			byBucket[p.Bucket] = p
		}
		var trend []rune
		for _, b := range buckets {
			p, ok := byBucket[b]
			if !ok {
				fmt.Fprintf(&sb, "%8s", "-")
				trend = append(trend, ' ')
				continue
			}
			fmt.Fprintf(&sb, "%8.1f", p.MeanGbps)
			idx := 0
			if maxBW > 0 {
				idx = int(p.MeanGbps / maxBW * float64(len(spark)-1))
			}
			if idx < 0 {
				idx = 0
			}
			if idx >= len(spark) {
				idx = len(spark) - 1
			}
			trend = append(trend, spark[idx])
		}
		fmt.Fprintf(&sb, "  %s\n", string(trend))
	}
	return sb.String()
}

// AlertList renders alerts one per line, sorted by time.
func AlertList(alerts []diagnose.Alert) string {
	sorted := make([]diagnose.Alert, len(alerts))
	copy(sorted, alerts)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Time.Before(sorted[j].Time) })
	var sb strings.Builder
	for _, a := range sorted {
		fmt.Fprintf(&sb, "[%s] %-17s %s\n", a.Time.Format("15:04:05.000"), a.Kind, a.Detail)
	}
	if len(sorted) == 0 {
		sb.WriteString("no alerts\n")
	}
	return sb.String()
}
