// Package session extracts the monitor-session lifecycle out of the CLI
// into a reusable manager, so the same wiring serves one-shot commands
// (llmprism monitor/record/replay) and the long-running multi-tenant fleet
// daemon (llmprismd) without re-assembling analyzer options, archive
// writers and checkpoint plumbing at every call site.
//
// The package has three layers:
//
//   - Config + Session: one options struct describing a monitor session —
//     window geometry, analyzer knobs (bucket, workers, localization,
//     chronic suppression), archive and checkpoint paths — and the session
//     built from it. Open assembles the tier-stratified analyzer, the
//     monitor options and the capture sink once. There is one way in:
//     PushFrame, which wire frames, archived windows and the CLI's record
//     batches (as flow.NewFrame) all take. There is one capture
//     path: the monitor stream appends every released window to an
//     llmprism.ArchiveSink and closes it, and the sink commits. ArchivePath
//     makes that sink one archive.FileWriter (written to .tmp; trailer,
//     fsync, rename, directory fsync on a clean Close); StoreDir makes it
//     an archive.StoreWriter, which runs the same FileWriter per segment
//     and commits closed segments mid-run. The session only keeps the
//     sink's Abort. With Resume, Open restarts from the checkpoint and
//     reconciles the store to the resume point, so a killed capture
//     continues bit-identically. OpenReplay is
//     the inverse: it reopens a recorded archive or store directory —
//     strictly, or salvaging what a torn capture left — restores the
//     recorded window grid and anchor, and replays every archived frame
//     through a fresh Session, reproducing the recorded reports bit for
//     bit. OpenScan runs time/pair/switch-bounded queries over a store
//     without building a session at all.
//
//   - Manager: a multi-tenant session registry keyed by cluster ID.
//     Sessions are created lazily on first use from a per-cluster Config
//     builder, bounded by MaxSessions, and rejected with a precise error
//     when two clusters would write the same archive or checkpoint path.
//     Each ClusterSession serializes its frame pushes behind a mutex, so many
//     collector connections can feed the manager concurrently while every
//     cluster's window pipeline stays strictly ordered; completed reports
//     are delivered, in window order, through the OnReports callback.
//     Release is completion-driven: every ClusterSession owns one release
//     goroutine that waits on the stream's completion signal, takes that
//     same mutex and runs Session.Collect — the release a push ends with —
//     so a window's archive append, checkpoint and OnReports delivery
//     happen when its analysis finishes, not on the cluster's next frame,
//     and a collector that goes quiet leaves nothing analysed but
//     unreleased. The goroutine exits when its session closes or dies.
//     Close checkpoints and finalizes every session in deterministic
//     (sorted cluster) order and joins the release goroutines.
//
//   - Wire framing (wire.go): the minimal length-prefixed LPF1 stream
//     framing llmprismd ingests — an LPW1 hello naming the cluster, then
//     u32-length-prefixed binary frames, then an end-of-stream marker —
//     with a strict decoder matching the rest of the repo's wire surfaces
//     (bounded allocations, exact-length validation, loud failure on
//     garbage). See wire.go for the byte layout and version policy.
//
// Determinism discipline carries through every layer: a session fed the
// same frames yields bit-identical reports whether it runs under the CLI,
// the manager, or the daemon, for any worker count, pipeline depth, or
// interleaving of other clusters' connections.
package session

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"github.com/llmprism/llmprism"
	"github.com/llmprism/llmprism/internal/archive"
	"github.com/llmprism/llmprism/internal/flow"
	"github.com/llmprism/llmprism/internal/topology"
)

// Config describes one monitor session: the analysis knobs and window
// geometry that cmd/llmprism's monitor, record and replay subcommands (and
// every daemon cluster session) build their monitors from. The zero value
// of each field keeps the corresponding library default.
type Config struct {
	// Topo is the fabric topology; it doubles as the endpoint→server
	// mapper and as the leaf/spine classifier for tier-stratified switch
	// diagnosis. Required.
	Topo *topology.Topology
	// Bucket is the switch-level aggregation bucket width (0 = library
	// default).
	Bucket time.Duration
	// Workers bounds the per-job analysis fan-out (0 = GOMAXPROCS).
	Workers int
	// Localize enables root-cause localization (ranked suspects plus the
	// monitor's fused cross-window ranking).
	Localize bool
	// Suppress enables chronic-anomaly suppression (the incident-centric
	// alert surface).
	Suppress bool

	// Window, Hop and Lateness set the event-time window geometry
	// (Hop 0 = tumbling).
	Window, Hop, Lateness time.Duration
	// Depth bounds how many closed windows analyze concurrently.
	Depth int

	// ArchivePath, when non-empty, records every completed window into a
	// binary trace archive at this path. The capture is written to
	// ArchivePath+".tmp" and renamed into place only on a clean Close, so
	// a crashed session never leaves a torn file under the final name
	// (the .tmp remains for salvage). Mutually exclusive with StoreDir.
	ArchivePath string
	// StoreDir, when non-empty, records every completed window into a
	// rotating multi-segment store rooted at this directory instead of a
	// single file. Segments rotate at window boundaries per Rotate, and
	// each closed segment is finalized atomically as the capture runs, so
	// a crashed session loses at most the open segment's temporary — and
	// even that stays salvageable. Mutually exclusive with ArchivePath.
	StoreDir string
	// Rotate bounds when the store rotates to a new segment and how much
	// history it retains; the zero policy writes one unbounded segment and
	// keeps everything. Only meaningful with StoreDir.
	Rotate archive.StorePolicy
	// Resume makes Open restart from the CheckpointPath checkpoint instead
	// of starting fresh: the monitor restores the recorded grid and
	// continuity state, and the StoreDir store (if any) is reconciled to
	// the checkpoint's resume point — a crashed open-segment temporary is
	// salvaged up to it — before new windows append. When the checkpoint
	// does not exist yet the session starts fresh (first boot under
	// resume), reconciling any store the previous start left behind to
	// resume point zero. Requires CheckpointPath and is incompatible with
	// ArchivePath: a single-file archive cannot be reopened for append.
	Resume bool
	// CheckpointPath, when non-empty, persists the session's continuity
	// state there after every released window (atomic save), enabling
	// crash-resume.
	CheckpointPath string
	// Anchor pre-sets the event-time grid origin; replay uses it to
	// restore a recorded session's exact window grid. Zero anchors at the
	// first record.
	Anchor time.Time
}

// AnalyzerOptions returns the analyzer option set the config describes —
// built once, shared by every subcommand, instead of the three hand-rolled
// assemblies the CLI used to carry.
func (c Config) AnalyzerOptions() []llmprism.Option {
	opts := []llmprism.Option{llmprism.WithWorkers(c.Workers)}
	if c.Bucket > 0 {
		opts = append(opts, llmprism.WithSwitchBucket(c.Bucket))
	}
	if c.Localize {
		opts = append(opts, llmprism.WithLocalization(llmprism.LocalizationConfig{}))
	}
	return opts
}

// Analyzer builds the plain (tier-pooled) analyzer — the historical
// comparison the analyze/timeline/switches subcommands keep.
func (c Config) Analyzer() *llmprism.Analyzer {
	return llmprism.New(c.AnalyzerOptions()...)
}

// TieredAnalyzer builds the topology-aware analyzer the monitoring paths
// use: the switch-bandwidth peer comparison is stratified by tier, so
// leaves are judged against leaves and spines against spines.
func (c Config) TieredAnalyzer() *llmprism.Analyzer {
	topo := c.Topo
	return llmprism.New(append(c.AnalyzerOptions(), llmprism.WithSwitchTiers(func(sw llmprism.SwitchID) int {
		if topo.IsSpine(sw) {
			return 1
		}
		return 0
	}))...)
}

// monitorOptions assembles the monitor option set (everything but the
// capture sink, which Open adds).
func (c Config) monitorOptions() []llmprism.MonitorOption {
	opts := []llmprism.MonitorOption{
		llmprism.WithLateness(c.Lateness),
		llmprism.WithPipelineDepth(c.Depth),
	}
	if c.Hop > 0 {
		opts = append(opts, llmprism.WithHop(c.Hop))
	}
	if c.Suppress {
		opts = append(opts, llmprism.WithChronicSuppression(llmprism.IncidentConfig{}))
	}
	if !c.Anchor.IsZero() {
		opts = append(opts, llmprism.WithAnchor(c.Anchor))
	}
	if c.CheckpointPath != "" {
		opts = append(opts, llmprism.WithCheckpoint(c.CheckpointPath))
	}
	return opts
}

// Session is one open monitor-stream session built from a Config. It owns
// the full lifecycle the CLI subcommands used to hand-roll: the streaming
// monitor, the capture sink and the checkpoint plumbing. A Session is
// single-goroutine, like the MonitorStream underneath; the Manager adds
// the per-cluster serialization the daemon needs.
type Session struct {
	cfg     Config
	monitor *llmprism.Monitor
	stream  *llmprism.MonitorStream
	// capture is the open archive sink: nil without one, and once the
	// stream has committed it.
	capture  captureSink
	storeRec *archive.StoreRecovery
	windows  int
	closed   bool
}

// captureSink is a session's archive sink: what the stream appends to and
// commits, plus the Abort the session releases it with.
type captureSink interface {
	llmprism.ArchiveSink
	Abort()
}

// Open builds the session the config describes and starts its monitor
// stream. ctx bounds every analysis the session runs. On error nothing is
// left open.
func Open(ctx context.Context, cfg Config) (*Session, error) {
	if cfg.Topo == nil {
		return nil, fmt.Errorf("session: nil topology")
	}
	if cfg.ArchivePath != "" && cfg.StoreDir != "" {
		return nil, fmt.Errorf("session: ArchivePath and StoreDir are mutually exclusive")
	}
	if cfg.Resume {
		if cfg.CheckpointPath == "" {
			return nil, fmt.Errorf("session: Resume requires CheckpointPath")
		}
		if cfg.ArchivePath != "" {
			return nil, fmt.Errorf("session: Resume cannot append to a single-file archive; use StoreDir")
		}
	}
	s := &Session{cfg: cfg}
	opts := cfg.monitorOptions()
	if cfg.ArchivePath != "" || cfg.StoreDir != "" {
		opts = append(opts, llmprism.WithArchiveSink(s.openCapture))
	}
	var monitor *llmprism.Monitor
	var err error
	if cfg.Resume {
		monitor, err = resumeMonitor(cfg, opts)
	} else {
		monitor, err = llmprism.NewMonitor(cfg.TieredAnalyzer(), cfg.Topo, cfg.Window, opts...)
	}
	if err != nil {
		return nil, err
	}
	// The monitor must be visible before Stream runs: Stream invokes the
	// openCapture factory, which reads the resumed checkpoint's seq off it.
	s.monitor = monitor
	// Stream fails before the factory runs or with the factory's own error,
	// so no capture is open on this path.
	stream, err := monitor.Stream(ctx)
	if err != nil {
		return nil, err
	}
	s.stream = stream
	return s, nil
}

// resumeMonitor rebuilds the monitor from the config's checkpoint; the
// checkpoint's window geometry and grid state are authoritative over the
// config's. A checkpoint that does not exist yet means the previous run
// (if any) never released a window: the monitor starts fresh.
func resumeMonitor(cfg Config, opts []llmprism.MonitorOption) (*llmprism.Monitor, error) {
	f, err := os.Open(cfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return llmprism.NewMonitor(cfg.TieredAnalyzer(), cfg.Topo, cfg.Window, opts...)
	}
	if err != nil {
		return nil, fmt.Errorf("session: resume: %w", err)
	}
	defer f.Close()
	return llmprism.ResumeMonitor(cfg.TieredAnalyzer(), cfg.Topo, f, opts...)
}

// openCapture is the archive-sink factory Stream invokes with the
// session's resolved window geometry: one file for ArchivePath, a store
// for StoreDir. A fresh session claims StoreDir as a new store — so does
// the first boot under Resume, when no manifest exists yet; a resumed one
// reconciles the existing store with the checkpoint — salvaging a crashed
// open-segment temporary up to the resume boundary — and continues
// appending after it.
func (s *Session) openCapture(meta archive.Meta) (llmprism.ArchiveSink, error) {
	var sink captureSink
	var err error
	resume := s.cfg.Resume
	if resume {
		_, serr := os.Stat(filepath.Join(s.cfg.StoreDir, archive.StoreManifestName))
		resume = !errors.Is(serr, fs.ErrNotExist)
	}
	switch {
	case s.cfg.ArchivePath != "":
		sink, err = archive.CreateFile(s.cfg.ArchivePath, meta)
	case resume:
		sink, s.storeRec, err = archive.ResumeStoreWriter(s.cfg.StoreDir, meta, s.cfg.Rotate, s.monitor.ResumeSeq())
	default:
		sink, err = archive.CreateStoreWriter(s.cfg.StoreDir, meta, s.cfg.Rotate)
	}
	if err != nil {
		return nil, err
	}
	s.capture = sink
	return sink, nil
}

// StoreRecovery reports what reconciling the store with the checkpoint
// found and repaired when the session was opened with Resume (nil on a
// fresh session, or when no store is configured).
func (s *Session) StoreRecovery() *archive.StoreRecovery { return s.storeRec }

// Window returns the session's resolved window width.
func (s *Session) Window() time.Duration { return s.monitor.Window() }

// Hop returns the session's resolved window stride.
func (s *Session) Hop() time.Duration { return s.monitor.Hop() }

// Lateness returns the session's allowed out-of-orderness.
func (s *Session) Lateness() time.Duration { return s.monitor.Lateness() }

// Windows returns how many window reports the session has released so far.
func (s *Session) Windows() int { return s.windows }

// Late returns how many record-to-window assignments were dropped for
// arriving past the lateness bound.
func (s *Session) Late() uint64 { return s.stream.Late() }

// PushFrame ingests one frame and returns every report that became ready,
// in window order — the session's one way in: archive replay and the
// daemon's wire ingest push decoded frames, the CLI's monitor and record
// push flow.NewFrame of each record batch. A nil frame ingests nothing.
func (s *Session) PushFrame(f *flow.Frame) ([]*llmprism.Report, error) {
	reports, err := s.stream.PushFrame(f)
	s.windows += len(reports)
	return reports, err
}

// Collect releases, without ingesting or blocking, every report whose
// analysis has finished since the last PushFrame or Collect — the
// same release those end with (archive append, checkpoint, window count).
func (s *Session) Collect() ([]*llmprism.Report, error) {
	reports, err := s.stream.Collect()
	s.windows += len(reports)
	return reports, err
}

// Completed returns the stream's coalescing completion signal (see
// llmprism.MonitorStream.Completed): the one member another goroutine may
// use without serializing with the session's calls. The Manager's release
// goroutine waits on it; the single-goroutine CLI never reads it.
func (s *Session) Completed() <-chan struct{} { return s.stream.Completed() }

// Close flushes every remaining window and returns the trailing reports in
// window order. The stream commits the capture sink on its way out — the
// single file renamed into place, or the store's last segment finalized and
// its manifest rewritten. On error the capture temporary stays on disk for
// salvage and the final path is never touched.
func (s *Session) Close() ([]*llmprism.Report, error) {
	if s.closed {
		return nil, fmt.Errorf("session: already closed")
	}
	s.closed = true
	reports, err := s.stream.Close()
	s.windows += len(reports)
	if err != nil {
		s.Abort()
		return reports, err
	}
	s.capture = nil
	return reports, nil
}

// Abort releases the session's file handles without finalizing anything:
// a single-file archive temporary is closed but left on disk (salvageable
// with replay -recover), a store keeps its finalized segments and
// manifest as last persisted with the open segment's .tmp left for
// salvage, and no final archive path is ever created. Abort after a clean
// Close is a no-op, so callers can defer it.
func (s *Session) Abort() {
	s.closed = true
	if s.capture != nil {
		s.capture.Abort()
		s.capture = nil
	}
}

// PrintReports writes the per-window summary lines every monitoring
// surface emits — the monitor/record/replay subcommands and the daemon's
// query endpoint share it, so a recorded session, its replay and its
// daemon-ingested twin can be compared line for line.
func PrintReports(w io.Writer, reports []*llmprism.Report) {
	for _, r := range reports {
		alerts := r.Alerts()
		fmt.Fprintf(w, "window %d [%s..%s): %d jobs, %d alerts, %d incidents\n",
			r.Window.Seq,
			r.Window.Start.Format(time.TimeOnly), r.Window.End.Format(time.TimeOnly),
			len(r.Jobs), len(alerts), len(r.Incidents))
		for _, inc := range r.Incidents {
			state := fmt.Sprintf("firing %d windows, first seen %s",
				inc.Windows, inc.FirstSeen.Format(time.TimeOnly))
			if inc.Chronic {
				state = "chronic, " + state
			}
			if !inc.StillFiring {
				state = "resolved"
			}
			fmt.Fprintf(w, "  job %d %v: %s — %s\n", inc.Key.Job, inc.Key.Kind, state, inc.Detail)
		}
		for i, s := range r.Suspects {
			if i == 3 {
				fmt.Fprintf(w, "  … and %d more suspects\n", len(r.Suspects)-i)
				break
			}
			fmt.Fprintf(w, "  suspect #%d %v: score %.2f, suspect for %d windows since %s\n",
				i+1, s.Component, s.Score, s.Windows, s.FirstSeen.Format(time.TimeOnly))
		}
		for i, s := range r.FusedSuspects {
			if i == 3 {
				fmt.Fprintf(w, "  … and %d more fused suspects\n", len(r.FusedSuspects)-i)
				break
			}
			fmt.Fprintf(w, "  fused #%d %v: fused %.2f over %d windows since %s\n",
				i+1, s.Component, s.Fused, s.Windows, s.FirstSeen.Format(time.TimeOnly))
		}
	}
}
