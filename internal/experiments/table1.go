package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/llmprism/llmprism/internal/core/parallel"
	"github.com/llmprism/llmprism/internal/erspan"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/platform"
	"github.com/llmprism/llmprism/internal/pool"
	"github.com/llmprism/llmprism/internal/topology"
)

// Table1Config parameterizes the parallelism-identification experiment.
type Table1Config struct {
	// Jobs is the number of independent 1,024-GPU jobs to average over
	// (the paper uses 5).
	Jobs int
	// NodesPerJob is the servers per job (128 = 1,024 GPUs).
	NodesPerJob int
	// Windows are the flow-window lengths of the table columns.
	Windows []time.Duration
	// TargetStep is the per-job training step duration; the paper-scale
	// jobs take tens of seconds per step, which is what makes 1-minute
	// windows hold only a handful of steps.
	TargetStep time.Duration
}

func defaultTable1Config(opts Options) Table1Config {
	return Table1Config{
		Jobs:        scaleInt(5, opts.Scale, 1),
		NodesPerJob: scaleInt(128, opts.Scale, 16),
		Windows: []time.Duration{
			time.Minute, 3 * time.Minute, 5 * time.Minute, 10 * time.Minute,
		},
		TargetStep: 20 * time.Second,
	}
}

// Table1Row is one window-length column of Table I.
type Table1Row struct {
	Window         time.Duration
	AccWithout     float64 // LLMPrism w/o refinement
	AccWith        float64 // full LLMPrism
	PairsEvaluated int
}

// Table1Result is the full table.
type Table1Result struct {
	Config  Table1Config
	Rows    []Table1Row
	SimWall time.Duration
}

// Table1 reproduces the paper's Table I: classification accuracy of
// communication pairs (DP vs PP) over windows of increasing length, with
// and without the DP-transitivity noise refinement. Jobs are simulated
// independently (matching the paper's five tenant jobs) and accuracies are
// averaged.
//
// The dominant error source is window truncation: a window edge that cuts
// through a DP collective leaves a step whose surviving flows show a
// single distinct size, voting the pair toward PP. Short windows hold few
// steps, so the per-pair mode is fragile; refinement repairs every such
// pair through the DP graph's connected components.
func Table1(ctx context.Context, cfg Table1Config, opts Options) (*Table1Result, error) {
	opts = opts.withDefaults()
	if cfg.Jobs == 0 {
		cfg = defaultTable1Config(opts)
	}
	maxWindow := cfg.Windows[len(cfg.Windows)-1]
	const offset = 45 * time.Second
	horizon := offset + maxWindow + 30*time.Second

	result := &Table1Result{Config: cfg}
	simStart := time.Now()

	// The tenant jobs are simulated independently with per-job seeds, so
	// they fan out to the worker pool; each returns its per-window rows and
	// the fold below sums them in job order, bit-identical to a sequential
	// loop.
	jobIdx := make([]int, cfg.Jobs)
	for i := range jobIdx {
		jobIdx[i] = i
	}
	perJobRows, err := pool.Map(ctx, opts.Workers, jobIdx,
		func(ctx context.Context, _ int, job int) ([]Table1Row, error) {
			topoSpec := topology.Spec{Nodes: cfg.NodesPerJob, NodesPerLeaf: 8, Spines: 8}
			jobs, err := platform.PlanJobs(topoSpec, []platform.JobPlan{
				{Nodes: cfg.NodesPerJob, TargetStep: cfg.TargetStep},
			}, opts.Seed+int64(job)*101)
			if err != nil {
				return nil, fmt.Errorf("experiments: table1: %w", err)
			}
			// Production collection regime: the collector aggregates each
			// queue pair's chunk stream into per-phase records, gradients
			// reduce at fp32 (so the two phase records differ in size), and
			// export datagrams are occasionally lost. Losing one of a step's
			// two phase records leaves a single distinct size — the DP→PP
			// noise the refinement pass exists to repair (§IV-B).
			for i := range jobs {
				jobs[i].FP32GradReduce = true
			}
			res, err := platform.Run(platform.Scenario{
				Name:    fmt.Sprintf("table1-job%d", job),
				Topo:    topoSpec,
				Jobs:    jobs,
				Horizon: horizon,
				Collector: erspan.Config{
					LossProb:     0.06,
					TimeJitter:   2 * time.Microsecond,
					AggregateGap: 2 * time.Millisecond,
					Seed:         opts.Seed + int64(job),
				},
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: table1: %w", err)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tj := res.Truth.Jobs[0]

			rows := make([]Table1Row, len(cfg.Windows))
			for wi, window := range cfg.Windows {
				views := jobViews(flow.NewFrame(res.Window(offset, window)), res.Topo)
				if len(views) == 0 {
					continue
				}

				with := parallel.IdentifyView(views[0], parallel.Config{})
				without := parallel.IdentifyView(views[0], parallel.Config{DisableRefinement: true})
				sWith := pairAccuracy(with.Types, tj)
				sWithout := pairAccuracy(without.Types, tj)

				rows[wi].Window = window
				rows[wi].AccWith = sWith.Accuracy()
				rows[wi].AccWithout = sWithout.Accuracy()
				rows[wi].PairsEvaluated = sWith.Total
			}
			return rows, nil
		})
	if err != nil {
		return nil, err
	}

	sums := make([]Table1Row, len(cfg.Windows))
	for _, rows := range perJobRows {
		for wi, row := range rows {
			if row.Window != 0 {
				sums[wi].Window = row.Window
			}
			sums[wi].AccWith += row.AccWith
			sums[wi].AccWithout += row.AccWithout
			sums[wi].PairsEvaluated += row.PairsEvaluated
		}
	}
	result.SimWall = time.Since(simStart)
	for _, row := range sums {
		row.AccWith /= float64(cfg.Jobs)
		row.AccWithout /= float64(cfg.Jobs)
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

// Report renders the table in the paper's layout.
func (r *Table1Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "E2 (Table I) — parallelism identification accuracy (%d jobs × %d GPUs)\n",
		r.Config.Jobs, r.Config.NodesPerJob*8)
	fmt.Fprintf(&sb, "  %-28s", "Method")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%12s", fmt.Sprintf("%v Acc.", row.Window))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  %-28s", "LLMPrism w/o refinement")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%12s", fmtPct(row.AccWithout))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  %-28s", "LLMPrism")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%12s", fmtPct(row.AccWith))
	}
	sb.WriteByte('\n')
	fmt.Fprintf(&sb, "  pairs evaluated per window: ")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%d ", row.PairsEvaluated)
	}
	fmt.Fprintf(&sb, "\n  wall: %v\n", r.SimWall.Round(time.Millisecond))
	return sb.String()
}
