// Package experiments implements the paper's evaluation (one function per
// table/figure) plus this reproduction's ablations, on top of the platform
// simulator and the analysis pipeline. cmd/repro runs them at paper scale;
// the root bench_test.go runs them at reduced scale.
//
// Experiment index (see DESIGN.md):
//
//	E1  Fig. 3   job recognition on a 2,880-GPU cluster with 19 jobs
//	E2  Table I  parallelism identification accuracy vs window length
//	E3  §V-C/Fig. 4  timeline reconstruction error + rendered timeline
//	E4  Fig. 5   switch-level diagnosis under spine degradation
//	E5  §V-D     cross-step and cross-group diagnosis
//	A1  ablation netsim fluid vs analytic mode
//	A2  ablation BOCD vs naive gap-threshold step splitting
//	A3  ablation collective ring count vs refinement repair
//
// The experiments are mutually independent and each derives all of its
// randomness from Options.Seed, so Run executes any subset of them
// concurrently with results bit-identical to a sequential pass. Every
// experiment takes a context and aborts between its simulation and
// analysis phases when canceled.
package experiments

import (
	"fmt"
	"time"

	"github.com/llmprism/llmprism/internal/core/jobrec"
	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/truth"
)

// Options tunes experiment scale. The zero value runs at paper scale.
type Options struct {
	// Scale in (0, 1] shrinks cluster sizes and horizons for quick runs.
	// Default 1 (paper scale).
	Scale float64
	// Seed drives all scenario randomness. Default 1.
	Seed int64
	// Workers bounds intra-experiment fan-out: the independent simulations
	// an experiment averages over (Table1's jobs, A1's network modes, A3's
	// ring configurations) run on up to Workers goroutines. Every
	// simulation derives its randomness from Seed alone and partial
	// results are folded in a fixed order, so outcomes are bit-identical
	// for any worker count. Zero or negative means GOMAXPROCS.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 || o.Scale > 1 {
		o.Scale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// scaleInt scales n, keeping at least min.
func scaleInt(n int, scale float64, min int) int {
	v := int(float64(n) * scale)
	if v < min {
		return min
	}
	return v
}

// scaleDur scales d, keeping at least min.
func scaleDur(d time.Duration, scale float64, min time.Duration) time.Duration {
	v := time.Duration(float64(d) * scale)
	if v < min {
		return min
	}
	return v
}

// jobViews runs job recognition the way the analyzer does — one DSU pass
// over the frame's pair index — and returns a zero-copy view of each job's
// rows in smallest-endpoint order: the input of parallel.IdentifyView and
// timeline.ReconstructView.
func jobViews(f *flow.Frame, mapper jobrec.ServerMapper) []flow.View {
	return jobrec.SelectJobs(f, jobrec.RecognizeFrame(f, mapper, jobrec.Config{}))
}

// predToTruth converts inferred pair types to the ground-truth enum.
func predToTruth(types map[flow.Pair]parallel.Type) map[flow.Pair]truth.PairType {
	out := make(map[flow.Pair]truth.PairType, len(types))
	for p, t := range types {
		if t == parallel.TypeDP {
			out[p] = truth.PairDP
		} else {
			out[p] = truth.PairPP
		}
	}
	return out
}

// pairAccuracy scores inferred types against one job's truth.
func pairAccuracy(types map[flow.Pair]parallel.Type, job truth.Job) truth.PairScore {
	return truth.ScorePairs(predToTruth(types), job)
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
