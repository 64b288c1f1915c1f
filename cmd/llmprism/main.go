// Command llmprism analyzes a window of collected network flow records and
// reports recognized training jobs, their parallelism strategies,
// reconstructed training timelines and diagnosed performance issues — the
// full black-box pipeline of the paper, as a platform operator would run it.
//
// Usage:
//
//	llmprism analyze  -flows flows.csv -topo topo.json [-alerts-only] [-workers 8]
//	llmprism diagnose -flows flows.csv -topo topo.json [-localize] [-bucket 1m] [-workers 8]
//	llmprism timeline -flows flows.csv -topo topo.json [-job 0] [-ranks 8] [-width 120]
//	llmprism switches -flows flows.csv -topo topo.json [-bucket 1m]
//	llmprism monitor  -flows flows.csv -topo topo.json [-window 1m] [-hop 30s] [-lateness 5s] [-batch 10s] [-depth 2] [-localize] [-suppress-chronic] [-checkpoint state.llpk]
//	llmprism record   -flows flows.csv -topo topo.json -archive trace.llpa [monitor flags]
//	llmprism record   -flows flows.csv -topo topo.json -store trace.llps [-rotate-windows N] [-rotate-bytes N] [-rotate-span 5m] [-retain-segments N] [-retain-bytes N] [monitor flags]
//	llmprism replay   -archive <trace.llpa|store-dir> -topo topo.json [-recover] [-window 1m] [-lateness 5s] [-depth 2] [-localize] [-suppress-chronic]
//	llmprism scan     -archive <trace.llpa|store-dir> [-from t] [-to t] [-pair 10.a.b.c,10.d.e.f] [-switch sw-3] [-recover] [-replay -topo topo.json [monitor flags]]
//
// -workers bounds the per-job fan-out of the analysis pipeline
// (0 = GOMAXPROCS); the report is identical for any value.
//
// monitor replays the flow file through the streaming engine as a
// continuous deployment would consume it: records are windowed on an
// event-time grid (-window wide, advancing by -hop, closing -lateness
// after their end), pushed in -batch-sized slices, and analyzed in a
// pipeline -depth windows deep. Each window prints its job, alert and
// ongoing-incident summary; late records are counted, not misfiled.
// -checkpoint additionally persists the session's continuity state after
// every window (atomically), for crash-resume.
//
// -suppress-chronic turns the alert feed incident-centric: anomalies that
// fire from the monitor's first alerting window and never resolve are
// classified chronic — platform steady state, not events — and removed
// from the per-window alert surface and (with -localize) from
// localization evidence, while their incidents stay listed with a
// chronic marker.
// Suspects that persist across windows additionally accumulate a fused
// score; the per-window fused ranking is printed alongside them.
//
// Every subcommand diagnoses with one analyzer: the switch-bandwidth
// comparison is stratified by tier (leaves vs spines) and the cross-group
// comparison by rail (each server's trailing GPU index apart from the
// rest), both taken from the topology. diagnose is the diagnosis-focused
// view of analyze: with -localize it converts the window's alerts plus
// the flows' switch paths into a ranked list of suspect components — the
// switch, inter-switch link or host NIC most likely behind the symptoms.
//
// record is monitor plus persistence: every completed window's columnar
// frame is appended to a binary trace alongside the printed report. With
// -archive the trace is a single file, written to a temporary and renamed
// into place only after a clean close, so a crashed capture never leaves
// a half-written file under the requested name. With -store the trace is
// a rotating multi-segment store directory instead: segments rotate at
// window boundaries when they exceed -rotate-windows, -rotate-bytes or
// -rotate-span, each closed segment is finalized atomically as the
// capture runs, and -retain-segments/-retain-bytes prune the oldest
// finalized segments so unbounded captures hold bounded history. replay
// reopens either layout — no flow file, no text parsing, no re-sorting —
// and pushes the archived windows back through a fresh monitor session on
// the recorded window grid, reproducing the recorded session's reports
// bit for bit (run with the same -bucket, -localize and detector settings
// used to record). Archives written by an unwindowed capture (zero
// recorded width) take their window geometry from the flags instead.
//
// replay -recover salvages a torn or unclosed capture (a crashed capture
// recovered from its temporary file or directory, a truncated copy): the
// intact whole windows replay exactly as they would from the clean trace,
// and a recovery note describing what was reconciled goes to stderr so
// stdout stays comparable line for line.
//
// scan queries a recorded trace without re-analyzing it: -from/-to bound
// event time, -pair an endpoint pair, -switch a traversed switch, and the
// store manifest's per-segment summaries prune segment files the query
// cannot match before any is opened. By default matching flows print one
// line each; with -replay the selected windows are instead pushed through
// a fresh monitor session built from the flags — re-analysis of a slice
// of history under a new configuration.
//
// The monitor, record and replay subcommands are thin adapters over
// internal/session, the same session lifecycle the llmprismd fleet daemon
// runs per cluster — one Config assembled from the flags, one Session
// driving open → push → close.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/core/timeline"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/session"
	"github.com/llmprism/llmprism/internal/topology"
	"github.com/llmprism/llmprism/viz"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "llmprism:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: llmprism <analyze|timeline|switches|monitor|record|replay> [flags]")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		flowsPath   = fs.String("flows", "flows.csv", "flow records (CSV or .jsonl)")
		topoPath    = fs.String("topo", "topo.json", "topology spec (JSON)")
		alertsOnly  = fs.Bool("alerts-only", false, "print only alerts (analyze)")
		jobIdx      = fs.Int("job", 0, "job index (timeline)")
		ranks       = fs.Int("ranks", 8, "ranks to render (timeline)")
		width       = fs.Int("width", 120, "render width in cells (timeline)")
		bucket      = fs.Duration("bucket", time.Minute, "aggregation bucket (switches)")
		workers     = fs.Int("workers", 0, "per-job analysis fan-out (0 = GOMAXPROCS)")
		window      = fs.Duration("window", time.Minute, "analysis window width (monitor)")
		hop         = fs.Duration("hop", 0, "window stride, <= window; 0 = tumbling (monitor)")
		lateness    = fs.Duration("lateness", 5*time.Second, "allowed out-of-orderness (monitor)")
		batch       = fs.Duration("batch", 10*time.Second, "replay batch size (monitor)")
		depth       = fs.Int("depth", 2, "pipelined windows in flight (monitor)")
		archivePath = fs.String("archive", "", "binary trace: single file or store directory (record output, replay/scan input)")
		storeDir    = fs.String("store", "", "rotating multi-segment store directory (record output)")
		rotWindows  = fs.Int("rotate-windows", 0, "rotate the store segment after this many windows (record -store; 0 = never)")
		rotBytes    = fs.Int64("rotate-bytes", 0, "rotate the store segment past this many bytes (record -store; 0 = never)")
		rotSpan     = fs.Duration("rotate-span", 0, "rotate the store segment past this event-time span (record -store; 0 = never)")
		keepSegs    = fs.Int("retain-segments", 0, "keep at most this many finalized segments (record -store; 0 = all)")
		keepBytes   = fs.Int64("retain-bytes", 0, "prune oldest finalized segments past this total size (record -store; 0 = unbounded)")
		ckptPath    = fs.String("checkpoint", "", "session checkpoint file, saved after every window (monitor, record)")
		localized   = fs.Bool("localize", false, "rank root-cause suspect components (diagnose, monitor, record, replay)")
		suppress    = fs.Bool("suppress-chronic", false, "suppress persistent anomalies from the alert surface (monitor, record, replay)")
		salvage     = fs.Bool("recover", false, "salvage the intact windows of a torn/unclosed capture (replay, scan)")
		fromFlag    = fs.String("from", "", "only windows/flows starting at or after this RFC3339 time (scan)")
		toFlag      = fs.String("to", "", "only windows/flows starting before this RFC3339 time (scan)")
		pairFlag    = fs.String("pair", "", `only flows between this endpoint pair, "10.a.b.c,10.d.e.f" (scan)`)
		switchFlag  = fs.String("switch", "", `only flows traversing this switch, "sw-12" or "12" (scan)`)
		scanReplay  = fs.Bool("replay", false, "re-analyze the selected windows through a monitor session instead of listing flows (scan)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if cmd == "timeline" && *ranks < 1 {
		return fmt.Errorf("usage: llmprism timeline: -ranks must be at least 1, got %d", *ranks)
	}

	// One shared option set for every subcommand: the session config is
	// assembled once from the flags, and every path derives the one
	// analyzer and its monitor options from it.
	cfg := session.Config{
		Bucket:   *bucket,
		Workers:  *workers,
		Localize: *localized,
		Suppress: *suppress,
		Window:   *window,
		Hop:      *hop,
		Lateness: *lateness,
		Depth:    *depth,
	}
	if cmd == "replay" {
		// Replay needs no flow file: the archive is the trace.
		topo, err := loadTopo(*topoPath)
		if err != nil {
			return err
		}
		cfg.Topo = topo
		return runReplay(ctx, stdout, stderr, *archivePath, cfg, *salvage)
	}
	if cmd == "scan" {
		q, err := parseQuery(*fromFlag, *toFlag, *pairFlag, *switchFlag)
		if err != nil {
			return err
		}
		if !*scanReplay {
			return runScan(stdout, stderr, *archivePath, q, *salvage)
		}
		// Re-analysis mode builds a full monitor session, so it needs the
		// topology like replay does.
		topo, err := loadTopo(*topoPath)
		if err != nil {
			return err
		}
		cfg.Topo = topo
		return runScanReplay(ctx, stdout, stderr, *archivePath, cfg, q, *salvage)
	}

	records, topo, err := load(*flowsPath, *topoPath)
	if err != nil {
		return err
	}
	cfg.Topo = topo
	switch cmd {
	case "monitor":
		cfg.CheckpointPath = *ckptPath
		return runMonitor(ctx, stdout, records, cfg, *batch)
	case "record":
		if *archivePath == "" && *storeDir == "" {
			return fmt.Errorf("record requires -archive or -store")
		}
		cfg.ArchivePath = *archivePath
		cfg.StoreDir = *storeDir
		cfg.Rotate = archive.StorePolicy{
			RotateWindows:  *rotWindows,
			RotateBytes:    *rotBytes,
			RotateSpan:     *rotSpan,
			RetainSegments: *keepSegs,
			RetainBytes:    *keepBytes,
		}
		cfg.CheckpointPath = *ckptPath
		return runMonitor(ctx, stdout, records, cfg, *batch)
	}
	report, err := cfg.Analyzer().AnalyzeContext(ctx, records, topo)
	if err != nil {
		return err
	}

	switch cmd {
	case "diagnose":
		return printDiagnose(stdout, report, topo, *localized)
	case "analyze":
		return printAnalysis(stdout, report, topo, *alertsOnly)
	case "timeline":
		return printTimeline(stdout, report, *jobIdx, *ranks, *width)
	case "switches":
		fmt.Fprint(stdout, viz.BandwidthSeries(report.SwitchSeries, topo.SwitchName))
		fmt.Fprintln(stdout, "\nswitch-level alerts:")
		fmt.Fprint(stdout, viz.AlertList(report.SwitchAlerts))
		return nil
	default:
		return fmt.Errorf("unknown command %q (want analyze, diagnose, timeline, switches, monitor, record, replay or scan)", cmd)
	}
}

// componentName renders a suspect component with topology-aware switch
// names ("spine-3" instead of "sw-11").
func componentName(topo *topology.Topology, c llmprism.SuspectComponent) string {
	switch c.Kind {
	case llmprism.ComponentSwitch:
		return "switch " + topo.SwitchName(c.Switch)
	case llmprism.ComponentLink:
		return "link " + topo.SwitchName(c.A) + " -> " + topo.SwitchName(c.B)
	default:
		return "host " + c.Host.String()
	}
}

// printDiagnose writes the diagnosis-focused view: alerts, then (with
// localization enabled) the ranked root-cause suspects.
func printDiagnose(stdout io.Writer, report *llmprism.Report, topo *topology.Topology, localized bool) error {
	alerts := report.Alerts()
	fmt.Fprintf(stdout, "alerts (%d):\n", len(alerts))
	fmt.Fprint(stdout, viz.AlertList(alerts))
	if !localized {
		return nil
	}
	fmt.Fprintf(stdout, "\nroot-cause suspects (%d):\n", len(report.Suspects))
	if len(report.Suspects) == 0 {
		fmt.Fprintln(stdout, "  none (no alert implicated any flow)")
		return nil
	}
	for i, s := range report.Suspects {
		fmt.Fprintf(stdout, "  #%d %-28s score %6.2f  coverage %.2f  contrast %5.2f  (%d implicated, %d healthy flows)\n",
			i+1, componentName(topo, s.Component), s.Score, s.Coverage, s.Contrast, s.Implicated, s.Healthy)
	}
	return nil
}

// runMonitor replays the flow file through a streaming monitor session in
// collection order, printing one line per completed window plus its
// ongoing incidents. A config with an ArchivePath (the record subcommand)
// also persists every completed window's columnar frame to a binary trace
// archive for later deterministic replay. All session wiring — analyzer
// assembly, archive temporary, checkpointing — lives in internal/session.
func runMonitor(ctx context.Context, stdout io.Writer, records []flow.Record, cfg session.Config, batch time.Duration) error {
	s, err := session.Open(ctx, cfg)
	if err != nil {
		return err
	}
	defer s.Abort()
	if batch <= 0 {
		batch = 10 * time.Second
	}

	sorted := make([]flow.Record, len(records))
	copy(sorted, records)
	flow.SortByStart(sorted)
	fmt.Fprintf(stdout, "monitoring %d records: window %v, hop %v, lateness %v, pipeline depth %d\n\n",
		len(sorted), s.Window(), s.Hop(), s.Lateness(), cfg.Depth)

	for lo := 0; lo < len(sorted); {
		cut := sorted[lo].Start.Add(batch)
		hi := lo
		for hi < len(sorted) && sorted[hi].Start.Before(cut) {
			hi++
		}
		reports, err := s.PushFrame(flow.NewFrame(sorted[lo:hi]))
		session.PrintReports(stdout, reports)
		if err != nil {
			return err
		}
		lo = hi
	}
	reports, err := s.Close()
	session.PrintReports(stdout, reports)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlate drops (record-window assignments): %d\n", s.Late())
	if cfg.ArchivePath != "" {
		fmt.Fprintf(stdout, "archived %d windows to %s\n", s.Windows(), cfg.ArchivePath)
	}
	if cfg.StoreDir != "" {
		fmt.Fprintf(stdout, "archived %d windows to store %s\n", s.Windows(), cfg.StoreDir)
	}
	return nil
}

// runReplay reopens a recorded binary trace archive and pushes its windows
// back through a fresh monitor session on the recorded window grid,
// reproducing the recorded reports bit for bit. Archives from unwindowed
// captures (zero recorded width) are windowed with the flag geometry.
// With salvage set, torn or unclosed archives are recovered to their
// intact whole-window prefix; the recovery note goes to stderr so stdout
// stays line-comparable with a clean replay of the same prefix.
func runReplay(ctx context.Context, stdout, stderr io.Writer, archivePath string, cfg session.Config, salvage bool) error {
	if archivePath == "" {
		return fmt.Errorf("replay requires -archive")
	}
	rep, err := session.OpenReplay(ctx, cfg, archivePath, salvage)
	if err != nil {
		return err
	}
	defer rep.Abort()
	if rep.Recovery != nil {
		fmt.Fprintf(stderr, "llmprism: recovered archive: %s\n", rep.Recovery)
	}
	fmt.Fprintf(stdout, "replaying %d archived windows: window %v, hop %v, lateness %v, pipeline depth %d\n\n",
		rep.NumWindows(), rep.Window(), rep.Hop(), rep.Lateness(), cfg.Depth)

	if err := rep.Run(func(reports []*llmprism.Report) {
		session.PrintReports(stdout, reports)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlate drops (record-window assignments): %d\n", rep.Late())
	return nil
}

// parseQuery assembles the scan subcommand's store query from its flags.
func parseQuery(from, to, pair, sw string) (archive.Query, error) {
	var q archive.Query
	var err error
	if from != "" {
		if q.From, err = time.Parse(time.RFC3339, from); err != nil {
			return q, fmt.Errorf("scan: -from: %w", err)
		}
	}
	if to != "" {
		if q.To, err = time.Parse(time.RFC3339, to); err != nil {
			return q, fmt.Errorf("scan: -to: %w", err)
		}
	}
	if pair != "" {
		a, b, ok := strings.Cut(pair, ",")
		if !ok {
			return q, fmt.Errorf(`scan: -pair %q: want "addr,addr"`, pair)
		}
		pa, err := flow.ParseAddr(strings.TrimSpace(a))
		if err != nil {
			return q, fmt.Errorf("scan: -pair: %w", err)
		}
		pb, err := flow.ParseAddr(strings.TrimSpace(b))
		if err != nil {
			return q, fmt.Errorf("scan: -pair: %w", err)
		}
		p := flow.MakePair(pa, pb)
		q.Pair = &p
	}
	if sw != "" {
		id, err := strconv.ParseInt(strings.TrimPrefix(sw, "sw-"), 10, 64)
		if err != nil {
			return q, fmt.Errorf(`scan: -switch %q: want "sw-N" or "N"`, sw)
		}
		s := flow.SwitchID(id)
		q.Switch = &s
	}
	return q, nil
}

// runScan lists every flow in the recorded trace matching the query, one
// line per flow, then a summary. Windows are listed in event-time order and
// the flows of one window in pair order (by start within a pair), as
// session.Scan visits them. Segment files
// the store manifest can prove irrelevant are never opened.
func runScan(stdout, stderr io.Writer, archivePath string, q archive.Query, salvage bool) error {
	if archivePath == "" {
		return fmt.Errorf("scan requires -archive")
	}
	var rows int
	var lastWindow time.Time
	windows := 0
	recovery, err := session.Scan(archivePath, salvage, q, func(start, _ time.Time, f *flow.Frame, i int) error {
		if windows == 0 || !start.Equal(lastWindow) {
			windows++
			lastWindow = start
		}
		rows++
		fmt.Fprintf(stdout, "%s %s -> %s  %d bytes  %v  via %v\n",
			f.Start(i).UTC().Format(time.RFC3339Nano), f.Src(i), f.Dst(i),
			f.Bytes(i), f.Duration(i), f.Switches(i))
		return nil
	})
	if recovery != nil {
		fmt.Fprintf(stderr, "llmprism: recovered archive: %s\n", recovery)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "matched %d flows in %d windows\n", rows, windows)
	return nil
}

// runScanReplay re-analyzes the query's slice of the trace: the selected
// segments' overlapping windows replay through a fresh monitor session
// built from the flags — history under a new configuration.
func runScanReplay(ctx context.Context, stdout, stderr io.Writer, archivePath string, cfg session.Config, q archive.Query, salvage bool) error {
	if archivePath == "" {
		return fmt.Errorf("scan requires -archive")
	}
	rep, err := session.OpenReplay(ctx, cfg, archivePath, salvage)
	if err != nil {
		return err
	}
	defer rep.Abort()
	if rep.Recovery != nil {
		fmt.Fprintf(stderr, "llmprism: recovered archive: %s\n", rep.Recovery)
	}
	sel := rep.Store().Select(q)
	fmt.Fprintf(stdout, "replaying %d of %d segments matching query: window %v, hop %v, lateness %v\n\n",
		len(sel), rep.NumSegments(), rep.Window(), rep.Hop(), rep.Lateness())
	if err := rep.RunSelected(q, func(reports []*llmprism.Report) {
		session.PrintReports(stdout, reports)
	}); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nlate drops (record-window assignments): %d\n", rep.Late())
	return nil
}

func load(flowsPath, topoPath string) ([]flow.Record, *topology.Topology, error) {
	ff, err := os.Open(flowsPath)
	if err != nil {
		return nil, nil, err
	}
	defer ff.Close()
	var records []flow.Record
	if strings.HasSuffix(flowsPath, ".jsonl") {
		records, err = flow.ReadJSONL(ff)
	} else {
		records, err = flow.ReadCSV(ff)
	}
	if err != nil {
		return nil, nil, err
	}
	topo, err := loadTopo(topoPath)
	if err != nil {
		return nil, nil, err
	}
	return records, topo, nil
}

func loadTopo(topoPath string) (*topology.Topology, error) {
	tf, err := os.Open(topoPath)
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	return topology.ReadJSON(tf)
}

func printAnalysis(stdout io.Writer, report *llmprism.Report, topo *topology.Topology, alertsOnly bool) error {
	if !alertsOnly {
		fmt.Fprintf(stdout, "recognized %d training jobs\n\n", len(report.Jobs))
		for i, job := range report.Jobs {
			var pp, dp int
			for _, t := range job.Types {
				if t == llmprism.TypeDP {
					dp++
				} else {
					pp++
				}
			}
			kind := "DP-only"
			if pp > 0 {
				kind = "PP+DP"
			}
			var meanStep time.Duration
			var n int
			for _, tl := range job.Timelines {
				if d := timeline.MeanStepDuration(tl); d > 0 {
					meanStep += d
					n++
				}
			}
			if n > 0 {
				meanStep /= time.Duration(n)
			}
			fmt.Fprintf(stdout, "job %d: %d GPUs on %d servers, %s, %d DP groups, %d DP pairs, %d PP pairs, mean step %v\n",
				i, len(job.Cluster.Endpoints), len(job.Cluster.Servers), kind,
				len(job.DPGroups), dp, pp, meanStep.Round(time.Millisecond))
		}
		fmt.Fprintln(stdout)
	}
	alerts := report.Alerts()
	fmt.Fprintf(stdout, "alerts (%d):\n", len(alerts))
	fmt.Fprint(stdout, viz.AlertList(alerts))
	return nil
}

func printTimeline(stdout io.Writer, report *llmprism.Report, jobIdx, nRanks, width int) error {
	if jobIdx < 0 || jobIdx >= len(report.Jobs) {
		return fmt.Errorf("job index %d out of range (have %d jobs)", jobIdx, len(report.Jobs))
	}
	job := report.Jobs[jobIdx]
	ranks := make([]flow.Addr, 0, len(job.Timelines))
	for r, tl := range job.Timelines {
		if len(tl.Steps) > 0 {
			ranks = append(ranks, r)
		}
	}
	if len(ranks) == 0 {
		return fmt.Errorf("job %d has no reconstructed steps", jobIdx)
	}
	sort.Slice(ranks, func(i, j int) bool { return ranks[i] < ranks[j] })
	if len(ranks) > nRanks {
		ranks = ranks[:nRanks]
	}
	tl := job.Timelines[ranks[0]]
	mid := len(tl.Steps) / 2
	from := tl.Steps[mid].Start
	span := 2 * timeline.MeanStepDuration(tl)
	if span <= 0 {
		span = 2 * tl.Steps[mid].Duration()
	}
	if span <= 0 {
		return fmt.Errorf("job %d has empty reconstructed steps", jobIdx)
	}
	fmt.Fprint(stdout, viz.TimelineSwimlanes(job.Records, job.Types, job.Timelines, ranks, from, from.Add(span), width))
	return nil
}
