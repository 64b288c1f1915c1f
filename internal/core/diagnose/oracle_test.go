package diagnose

// The record-slice switch-series path, kept as the test oracle the shipped
// SeriesAccum.AddView is compared against. Add folds into the same
// seriesCell accumulators as the view path.

import (
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
)

// Add folds the DP-classified records into the accumulator.
func (a *SeriesAccum) Add(records []flow.Record, types map[flow.Pair]parallel.Type) {
	for _, r := range records {
		if types[r.Pair()] != parallel.TypeDP {
			continue
		}
		bucket := r.Start.Truncate(a.cfg.Bucket)
		gbps := r.Gbps()
		bw := 0
		if r.Duration > 0 && r.Bytes > 0 {
			bw = 1
		}
		for _, sw := range r.Switches {
			a.cell(sw, bucket).add(bw, gbps)
		}
	}
}

// SwitchSeries aggregates DP flows per switch into time-bucket series —
// the quantity plotted in the paper's Fig. 5.
func SwitchSeries(records []flow.Record, types map[flow.Pair]parallel.Type, cfg Config) map[flow.SwitchID][]SwitchPoint {
	a := NewSeriesAccum(cfg)
	a.Add(records, types)
	return a.Series()
}
